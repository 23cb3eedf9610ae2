"""Command-line surface.

Subcommands: ``ingest`` (dataset summary), ``train`` (fit + metrics
artifacts), ``eval`` (score a checkpoint), ``ablate`` (the six-variant
component sweep), and ``bench`` (mixer scaling measurements). Specs are JSON
documents; command-line flags override spec-file values which override
defaults. Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
A command creates its ``--out`` directory only once its inputs are read, so
one that fails on its input leaves none behind.

stdout carries only report paths and one summary line per command; progress
and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import mixers as mx
from . import model as md
from . import numcore as nc
from . import tgraph as tg
from . import traineval as te

ABLATION_VARIANTS = {
    "full": {},
    "no_lp": {"no_lp": True},
    "no_rt": {"no_rt": True},
    "relu": {"activation": "relu"},
    "no_resnet": {"no_resnet": True},
    "no_cm": {"no_cm": True},
}

USAGE_ERRORS = (
    nc.ConfigError,
    nc.ContractError,
    tg.SpecError,
    tg.ParseError,
    tg.ValidationError,
    tg.SplitError,
    te.ProtocolError,
    FileNotFoundError,
    IsADirectoryError,
    FileExistsError,
    json.JSONDecodeError,
)


# glibc malloc settings applied once per process by :func:`main`. A training
# step frees its activations after the backward pass; with glibc's defaults
# the freed heap top is trimmed and large arrays are unmapped, so the next
# step faults the same memory back in page by page. 32 MiB is the largest
# mmap threshold glibc accepts on 64-bit. One arena keeps the channel mixer's
# row worker thread (``numcore._start_row_worker``, also started by
# :func:`main`) allocating from the main heap instead of a second one.
M_MMAP_THRESHOLD = 32 * 2**20
M_TRIM_THRESHOLD = 128 * 2**20
M_ARENA_MAX = 1
_MALLOPT_PARAMS = ((-3, M_MMAP_THRESHOLD), (-1, M_TRIM_THRESHOLD),  # malloc.h numbers
                   (-8, M_ARENA_MAX))


def _libc():
    import ctypes

    return ctypes.CDLL(None)


@functools.cache
def _keep_freed_heap() -> None:
    """Set the glibc settings above; without glibc's ``mallopt``, nothing."""
    try:
        mallopt = _libc().mallopt
    except (OSError, AttributeError):
        return
    for param, value in _MALLOPT_PARAMS:
        mallopt(param, value)


class UsageError(ValueError):
    """Bad flags or spec content."""


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


@dataclass
class RunSpec:
    """One resolved run: exactly one data source, plus configs and output."""

    data_path: str | None = None
    synthetic: tg.SyntheticSpec | None = None
    synthetic_seed: int = 0
    model: md.ModelConfig = field(default_factory=md.ModelConfig)
    train: te.TrainConfig = field(default_factory=te.TrainConfig)
    out_dir: Path = Path("out")
    runs: int = 1
    bipartite: bool = False  # disjoint source and destination ids at ingest

    def validate(self):
        if (self.data_path is None) == (self.synthetic is None):
            raise UsageError("exactly one data source required: a dataset path or a synthetic spec")
        if self.bipartite and self.data_path is None:
            raise UsageError("bipartite applies to a dataset path, not a synthetic stream")
        if self.runs < 1:
            raise UsageError("--runs must be at least 1")

    def load_stream(self) -> tg.EventStream:
        if self.data_path is not None:
            return tg.ingest_csv(self.data_path, bipartite=self.bipartite)
        return tg.generate_synthetic(self.synthetic, self.synthetic_seed)


def _load_spec_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return nc.json_typed(path, json.load(fh), "dict")


def _out_dir(name: str, text: str) -> Path:
    """An output directory path; an empty one is a usage error, not the
    current directory."""
    if not text:
        raise UsageError(f"{name} must name a directory, got an empty path")
    return Path(text)


def _int_list(flag: str, text: str) -> list[int]:
    """The integers of a comma-separated flag value; anything else is a usage error."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated integers, got {text!r}") from None


def resolve_run_spec(args) -> RunSpec:
    """Merge defaults, spec file, and flags (flags win)."""
    doc = _load_spec_file(args.config) if args.config else {}
    model_kw = dict(nc.json_typed("'model'", doc.get("model", {}), "dict"))
    train_kw = dict(nc.json_typed("'train'", doc.get("train", {}), "dict"))
    data = nc.json_typed("'data'", doc.get("data", {}), "dict")
    spec = RunSpec()
    if "path" in data:
        spec.data_path = nc.json_typed("data 'path'", data["path"], "str")
    spec.bipartite = nc.json_typed("data 'bipartite'", data.get("bipartite", False), "bool")
    if "synthetic" in data:
        spec.synthetic = tg.SyntheticSpec.from_dict(data["synthetic"])
        spec.synthetic_seed = nc.json_typed("data 'seed'", data.get("seed", 0), "int")
        if spec.synthetic_seed < 0:
            raise UsageError(f"data 'seed' must be non-negative, got {spec.synthetic_seed}")
    if "out" in doc:
        spec.out_dir = _out_dir("'out'", nc.json_typed("'out'", doc["out"], "str"))
    spec.runs = nc.json_typed("'runs'", doc.get("runs", 1), "int")

    if getattr(args, "dataset", None) and getattr(args, "synthetic", None):
        raise UsageError("--dataset and --synthetic are mutually exclusive")
    if getattr(args, "dataset", None):
        spec.data_path, spec.synthetic = args.dataset, None
    if getattr(args, "synthetic", None):
        spec.synthetic = tg.SyntheticSpec.from_dict(json.loads(args.synthetic))
        spec.data_path, spec.bipartite = None, False
    for name in ("mixer", "dim", "time_dim", "n_max"):
        flag = getattr(args, name, None)
        if flag is not None:
            model_kw[name] = flag
    if getattr(args, "spans", None) is not None:
        model_kw["spans"] = _int_list("--spans", args.spans)
    for flag in ("no_lp", "no_rt", "no_resnet", "no_cm"):
        if getattr(args, flag, False):
            model_kw[flag] = True
    if getattr(args, "relu", False):
        model_kw["activation"] = "relu"
    for name in ("epochs", "lr", "batch_size", "patience", "seed"):
        flag = getattr(args, name, None)
        if flag is not None:
            train_kw[name] = flag
    if (getattr(args, "seed", None) or 0) < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    if getattr(args, "out", None) is not None:
        spec.out_dir = _out_dir("--out", args.out)
    if getattr(args, "runs", None) is not None:
        spec.runs = args.runs

    spec.model = md.ModelConfig.from_dict(model_kw)
    spec.train = nc.from_json(te.TrainConfig, train_kw, "train config")
    spec.validate()
    return spec


def _aggregate(values: list[float]) -> dict:
    return {
        "mean": float(statistics.fmean(values)),
        "std": float(np.std(values)),  # population std over the runs
    }


def _run_training(spec: RunSpec, stream: tg.EventStream
                  ) -> tuple[list[dict], list[md.ModelParams]]:
    reports, params_list = [], []
    for run_idx in range(spec.runs):
        cfg = replace(spec.train, seed=spec.train.seed + run_idx)
        _log(f"run {run_idx}: seed={cfg.seed}")
        params, report = te.train(stream, spec.model, cfg)
        doc = report.to_dict()
        doc["seed"] = cfg.seed
        reports.append(doc)
        params_list.append(params)
    return reports, params_list


def _check_model_fits(config: md.ModelConfig, stream: tg.EventStream) -> None:
    """Allocate each tensor of the model once, so that a size that fits an
    int64 but not memory is a usage error naming the tensor, before ``--out``
    is made."""
    for name, (shape, _) in md._tensor_table(config, stream.node_dim, stream.edge_dim).items():
        try:
            np.empty(shape)
        except (MemoryError, ValueError) as exc:  # ValueError: bytes past the int64 range
            raise nc.ConfigError(f"model config: tensor {name!r} of shape {shape} "
                                 f"does not fit in memory ({exc})") from None


def cmd_train(args) -> int:
    spec = resolve_run_spec(args)
    stream = spec.load_stream()
    te.fit_partition(stream)  # fails on a stream it cannot fit, before --out
    _check_model_fits(spec.model, stream)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    reports, params_list = _run_training(spec, stream)
    metrics = {
        "model": spec.model.to_dict(),
        "runs": reports,
        "ap": _aggregate([r["ap"] for r in reports]),
        "auc_roc": _aggregate([r["auc_roc"] for r in reports]),
    }
    metrics_path = spec.out_dir / "metrics.json"
    _write_json(metrics_path, metrics)
    md.save_checkpoint(params_list[0], spec.out_dir / "checkpoint.json")
    with open(spec.out_dir / "loss_curve.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "epoch", "loss", "val_ap", "val_auc_roc"])
        for run_idx, rep in enumerate(reports):
            for epoch, loss in enumerate(rep["epoch_losses"]):
                writer.writerow([run_idx, epoch, repr(loss),
                                 repr(rep["val_ap"][epoch]),
                                 repr(rep["val_auc_roc"][epoch])])
    print(f"{metrics_path} ap={metrics['ap']['mean']:.4f} "
          f"auc_roc={metrics['auc_roc']['mean']:.4f}")
    return 0


def cmd_eval(args) -> int:
    spec = resolve_run_spec(args)
    params = md.load_checkpoint(args.checkpoint)
    stream = spec.load_stream()
    dims, stream_dims = (params.node_dim, params.edge_dim), (stream.node_dim, stream.edge_dim)
    if dims != stream_dims:
        raise nc.ContractError(f"checkpoint (node_dim, edge_dim) {dims} does not match "
                               f"the stream's {stream_dims}")
    _, _, test_split = tg.chronological_split(stream, te.TRAIN_RATIO, te.VAL_RATIO)
    candidates = te._negative_candidates(stream, len(stream) - len(test_split))
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    store = tg.TemporalStore(stream)
    ap, auc = te.evaluate(params, test_split, store, candidates,
                          [spec.train.seed, te.TEST_SEED_TAG])
    eval_path = spec.out_dir / "eval.json"
    _write_json(eval_path, {"ap": ap, "auc_roc": auc, "seed": spec.train.seed})
    print(f"{eval_path} ap={ap:.4f} auc_roc={auc:.4f}")
    return 0


def cmd_ablate(args) -> int:
    spec = resolve_run_spec(args)
    if spec.model.mixer != "adaptive":
        raise UsageError("the ablation sweep applies to the adaptive mixer")
    stream = spec.load_stream()
    te.fit_partition(stream)
    # the full variant holds every tensor that another variant holds
    _check_model_fits(replace(spec.model, no_lp=False, no_rt=False, no_cm=False), stream)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    base = spec.model.to_dict()
    results = {}
    for variant, overrides in ABLATION_VARIANTS.items():
        flags = {**dict.fromkeys(("no_lp", "no_rt", "no_resnet", "no_cm"), False), **overrides}
        variant_spec = replace(spec, model=replace(spec.model, **flags))
        _log(f"ablation variant: {variant}")
        reports, params_list = _run_training(variant_spec, stream)
        md.save_checkpoint(params_list[0], spec.out_dir / f"checkpoint_{variant}.json")
        results[variant] = {
            "ap": [r["ap"] for r in reports],
            "auc_roc": [r["auc_roc"] for r in reports],
            "seeds": [r["seed"] for r in reports],
        }
    observations = {}
    full_ap = results["full"]["ap"]
    for variant in ABLATION_VARIANTS:
        if variant == "full":
            continue
        wins = sum(1 for a, b in zip(full_ap, results[variant]["ap"]) if a >= b)
        observations[variant] = {"full_at_least_variant_in_seeds": wins,
                                 "total_seeds": len(full_ap)}
    doc = {"variants": results, "observations": observations,
           "model": base, "runs": spec.runs}
    report_path = spec.out_dir / "ablation.json"
    _write_json(report_path, doc)
    with open(spec.out_dir / "ablation.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "ap", "auc_roc"])
        for variant, res in results.items():
            writer.writerow([variant, repr(float(np.mean(res["ap"]))),
                             repr(float(np.mean(res["auc_roc"])))])
    summary = " ".join(f"{v}={float(np.mean(res['ap'])):.4f}"
                       for v, res in results.items())
    print(f"{report_path} {summary}")
    return 0


# --- mixer scaling benchmark ----------------------------------------------


def _bench_config(mixer: str, n: int, dim: int, kernel: int) -> md.ModelConfig:
    """The one-layer model whose token mixer ``bench`` times at length ``n``:
    ``kernel`` offsets (the pooling window), N = n_max; a config no model
    takes is a usage error."""
    try:
        return md.ModelConfig(dim=dim, spans=(kernel,), mixer=mixer, n_max=n)
    except nc.ConfigError as exc:
        raise UsageError(f"bench {mixer} at N={n}, dim {dim}, {kernel} offsets: {exc}") from exc


def _bench_forward(config: md.ModelConfig, seed: int, rng: np.random.Generator):
    """One forward of the first layer's token mixer, as ``init_params`` and
    ``bind`` build it, on fresh tokens; returns (the flops the mix adds to the
    tape, wall_ns)."""
    tape = nc.Tape()
    mixer, _ = md.bind(md.init_params(config, 0, 0, seed), tape, trainable=False).layers[0]
    tokens = tape.constant(rng.normal(size=(config.n_max, config.dim)))
    times = np.arange(float(config.n_max))
    flops = tape.flops
    start = time.perf_counter_ns()
    mx.token_mix(tokens, times, mixer, config.activation)
    return tape.flops - flops, time.perf_counter_ns() - start


def _fit_slope(ns, values) -> float:
    return float(np.polyfit(np.log(np.asarray(ns, float)),
                            np.log(np.asarray(values, float)), 1)[0])


def _bench_configs(lengths, mixer_kinds, repeats, dim, kernel, seed) -> dict:
    """Check the benchmark's arguments; the config to time per (mixer, N)."""
    lengths = [int(n) for n in lengths]
    if len(lengths) < 3:
        raise UsageError("need at least 3 sequence lengths to fit a slope robustly")
    if any(a >= b for a, b in zip(lengths, lengths[1:])):
        raise UsageError(f"sequence lengths must be strictly ascending, got {lengths}")
    if repeats < 1:
        raise UsageError("repeats must be at least 1")
    if seed < 0:
        raise UsageError(f"--seed must be non-negative, got {seed}")
    return {(mixer, n): _bench_config(mixer, n, dim, kernel)
            for mixer in mixer_kinds for n in lengths}


def _measure(configs: dict, repeats: int, seed: int) -> dict:
    """Ops and median wall time per (mixer, N); each mixer's log-log slopes."""
    rng = np.random.default_rng(seed)
    points = {}
    for (mixer, n), config in configs.items():
        _bench_forward(config, seed, rng)  # warmup
        walls = []
        for _ in range(repeats):
            ops, wall = _bench_forward(config, seed, rng)
            walls.append(wall)
        points.setdefault(mixer, []).append({"n": n, "ops": int(ops),
                                             "median_ns": int(np.median(walls))})
    return {mixer: {
        "points": pts,
        "ops_slope": _fit_slope([p["n"] for p in pts], [p["ops"] for p in pts]),
        "wall_slope": _fit_slope([p["n"] for p in pts], [p["median_ns"] for p in pts]),
    } for mixer, pts in points.items()}


def run_bench(lengths, mixer_kinds, repeats, dim=8, kernel=8, seed=0) -> dict:
    """Measure operation counts and wall time per (mixer, N); fit log-log slopes.

    Operation counts are machine-independent and drive the scaling claim;
    wall times are reported alongside.
    """
    configs = _bench_configs(lengths, mixer_kinds, repeats, dim, kernel, seed)
    return _measure(configs, repeats, seed)


def cmd_bench(args) -> int:
    lengths = _int_list("--lengths", args.lengths)
    mixer_kinds = [m.strip() for m in args.mixers.split(",")]
    configs = _bench_configs(lengths, mixer_kinds, args.repeats, args.dim, args.kernel,
                             args.seed)
    out_dir = Path("out") if args.out is None else _out_dir("--out", args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _measure(configs, args.repeats, args.seed)
    _write_json(out_dir / "bench.json", results)
    csv_path = out_dir / "bench.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mixer", "N", "median_ns", "slope"])
        for mixer, res in results.items():
            for p in res["points"]:
                writer.writerow([mixer, p["n"], p["median_ns"],
                                 repr(res["ops_slope"])])
    summary = " ".join(f"{m}:ops_slope={res['ops_slope']:.3f}"
                       for m, res in results.items())
    print(f"{csv_path} {summary}")
    return 0


def cmd_ingest(args) -> int:
    out_dir = None if args.out is None else _out_dir("--out", args.out)
    stream = tg.ingest_csv(args.path, bipartite=args.bipartite)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tg.write_csv(stream, out_dir / "ingested.csv")
    print(f"nodes={stream.node_count} links={len(stream)} "
          f"edge_dim={stream.edge_dim} node_dim={stream.node_dim}")
    return 0


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON run spec; flags override file values")
    p.add_argument("--dataset", help="CSV interaction file")
    p.add_argument("--synthetic", help="inline JSON synthetic stream spec")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="base training seed")
    p.add_argument("--runs", type=int, help="sequential runs with seed, seed+1, ...")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--mixer", choices=md.MIXERS)
    p.add_argument("--dim", type=int)
    p.add_argument("--time-dim", dest="time_dim", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--spans", help="comma-separated per-layer spans, e.g. 2,4,8")
    for flag in ("no-lp", "no-rt", "relu", "no-resnet", "no-cm"):
        p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempomix",
        description="Temporal-graph link prediction with attention-free token mixing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="summarize an interaction CSV")
    p.add_argument("path")
    p.add_argument("--out", help="directory for the normalized copy")
    p.add_argument("--bipartite", action="store_true",
                   help="give source and destination ids disjoint node ids")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="fit a model and write metrics artifacts")
    _add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on the test partition")
    p.add_argument("checkpoint")
    _add_run_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train the six component variants")
    _add_run_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("bench", help="mixer scaling benchmark")
    p.add_argument("--lengths", default="256,1024,4096",
                   help="strictly ascending comma-separated sequence lengths (>=3)")
    p.add_argument("--mixers", default="adaptive,attention",
                   help="comma-separated mixer kinds")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--kernel", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    _keep_freed_heap()
    nc._start_row_worker()  # and, with it, numpy's OpenBLAS at one thread
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, *USAGE_ERRORS) as exc:
        _log(f"error: {exc}")
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _log(f"runtime error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
