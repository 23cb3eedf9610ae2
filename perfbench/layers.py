"""Per-layer metrics of a traced command.

Span metrics are named ``<module>.<function>.<kind>``; the kinds map onto the
tracer's aggregates. Each group notes the end-to-end metric it should move and
on which workload, so a change to one layer can be traced to its effect.
"""

from __future__ import annotations

import statistics

# (span name, kinds)
SPANS = (
    # batch assembly -> throughput_per_s on train-periodic and eval-wide
    ("tgraph.recent_neighbors", ("calls", "self_s")),
    ("tgraph.sample_negative", ("calls", "self_s")),
    ("encoders.time_encode_rows", ("calls", "self_s")),
    # per-sequence embedding -> train-attention only
    ("encoders.embed_neighbors", ("calls", "self_s")),
    # per-key assembly plus readout and loss glue -> train-periodic, eval-wide
    ("model.batch_loss", ("calls", "self_s")),
    ("model.score_pairs", ("calls", "self_s")),
    # adaptive mixer and channel mixer -> train-periodic, eval-wide
    ("mixers.adaptive_mix_batched", ("calls", "fwd_s", "bwd_s")),
    ("mixers.channel_mix", ("calls", "fwd_s", "self_s", "bwd_s")),
    # attention and the per-sequence block -> train-attention
    ("mixers.attention_mix", ("calls", "fwd_s", "bwd_s")),
    ("mixers.token_block", ("calls",)),
    # kernels -> every workload
    ("numcore.gelu", ("calls", "fwd_s", "bwd_s")),
    ("numcore.matmul", ("calls", "fwd_s", "bwd_s")),
    ("numcore.layer_norm_rows", ("calls", "fwd_s", "bwd_s")),
    ("numcore.add", ("calls", "fwd_s", "bwd_s")),
    # tape replay overhead and the optimiser -> train-* only
    ("numcore.backward", ("calls", "self_s")),
    ("numcore.adam_step", ("calls", "self_s")),
    # validation and test scoring inside train -> throughput_per_s on train-*
    ("traineval.evaluate", ("calls", "fwd_s")),
    ("traineval.average_precision", ("calls", "self_s")),
    ("traineval.auc_roc", ("calls", "self_s")),
    # artifacts written and read by the cli commands
    ("model.save_checkpoint", ("calls", "self_s")),
    ("model.load_checkpoint", ("calls", "self_s")),
)

_KIND = {"calls": "calls", "fwd_s": "fwd", "self_s": "self", "bwd_s": "bwd"}

# (name, unit, better) of the metrics not read from one span
DERIVED = (
    # padding rows / (R * n_max) from the numcore.mean_rows_blocks arguments:
    # wasted mixer and channel work on the adaptive workloads
    ("model.pad_fraction", "ratio", "lower"),
    # exact counts per batch (batch_loss plus score_pairs calls)
    ("numcore.tape_steps_per_batch", "count", "lower"),
    ("numcore.flops_per_batch", "flop", "lower"),
    # wall time per optimiser step, first negative draw to end of Adam
    ("traineval.step_ms.p50", "ms", "lower"),
    ("traineval.step_ms.p90", "ms", "lower"),
    # share of the traced command below the cli entry points
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def metric_list() -> list[dict]:
    """Name, unit and better direction of every per-layer metric."""
    out = []
    for span, kinds in SPANS:
        for kind in kinds:
            unit = "count" if kind == "calls" else "s"
            out.append({"name": f"{span}.{kind}", "unit": unit, "better": "lower"})
    out += [{"name": n, "unit": u, "better": b} for n, u, b in DERIVED]
    return out


def exact_names() -> list[str]:
    """Counts that must repeat exactly between two traced runs."""
    return [m["name"] for m in metric_list()
            if m["name"].endswith(".calls") or m["name"] in
            ("numcore.tape_steps_per_batch", "numcore.flops_per_batch")]


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def compute(tracer, traced_wall_ns: int, untraced_wall_ns: int) -> dict[str, float]:
    summary = tracer.summary()
    empty = {"calls": 0, "fwd": 0, "self": 0, "bwd": 0}
    out: dict[str, float] = {}
    for span, kinds in SPANS:
        agg = summary.get(span, empty)
        for kind in kinds:
            value = agg[_KIND[kind]]
            out[f"{span}.{kind}"] = int(value) if kind == "calls" else value / 1e9
    batches = (summary.get("model.batch_loss", empty)["calls"]
               + summary.get("model.score_pairs", empty)["calls"])
    step_ms = [ns / 1e6 for ns in tracer.step_ns]
    out.update({
        "model.pad_fraction": tracer.pad_rows / tracer.block_rows if tracer.block_rows else 0.0,
        "numcore.tape_steps_per_batch": tracer.tape_steps / batches if batches else 0.0,
        "numcore.flops_per_batch": tracer.flops / batches if batches else 0.0,
        "traineval.step_ms.p50": _percentile(step_ms, 50),
        "traineval.step_ms.p90": _percentile(step_ms, 90),
        "trace.coverage": tracer.covered_ns() / traced_wall_ns,
        "trace.overhead_ratio": traced_wall_ns / untraced_wall_ns,
    })
    return out
