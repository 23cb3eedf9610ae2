"""Tests of the benchmark's tracer, run on tiny CLI commands.

Run with ``python -m pytest perfbench`` from the root of a checkout.
"""

import inspect
import json
from pathlib import Path

import pytest

import layers
from run import END_TO_END, import_program
from tracer import METHODS, MODULES, Tracer
from workloads import WORKLOADS

tm = import_program()

HERE = Path(__file__).resolve().parent


def tiny_train(tmp_path, mixer):
    spec = {
        "data": {"synthetic": {"n_src": 4, "n_dst": 4, "n_events": 120,
                               "pattern": "periodic"}, "seed": 5},
        "model": {"dim": 4, "time_dim": 4, "spans": [2, 4], "n_max": 4, "mixer": mixer},
        "train": {"epochs": 1, "lr": 1e-2, "batch_size": 20, "patience": 1, "seed": 5},
        "out": str(tmp_path / "out"),
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(spec))
    return ["train", "--config", str(path)]


def traced(argv, run_id=0):
    tracer = Tracer(tm, run_id=run_id)
    with tracer:
        assert tm.cli.main(argv) == 0
    return tracer


def attribute_snapshot():
    owners = [tm] + [getattr(tm, m) for m in MODULES]
    owners += [getattr(getattr(tm, m), c) for m, c, _ in METHODS]
    owners.append(tm.numcore.Tape)
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


@pytest.mark.parametrize("mixer", ["adaptive", "attention"])
def test_every_backward_step_lands_on_a_forward_span(tmp_path, mixer):
    tracer = traced(tiny_train(tmp_path, mixer))
    assert tracer.tape_steps > 0
    assert tracer.unattributed_steps == 0
    summary = tracer.summary()
    owners = {name for name, agg in summary.items() if agg["bwd_own"] > 0}
    assert owners, "no backward time was attributed"
    # steps are recorded by forward ops, never by the replay or the entry points
    assert not {"numcore.backward", "traineval.fit", "cli.main"} & owners
    # every step ran inside the replay, and its time left the replay's self time
    replay = summary["numcore.backward"]
    total_own = sum(agg["bwd_own"] for agg in summary.values())
    assert replay["fwd"] - replay["self"] == total_own == sum(tracer.span_bwd)


def test_a_step_recorded_outside_every_span_is_counted():
    tracer = Tracer(tm)
    with tracer:
        tm.numcore.Tape().record(lambda: None)
    assert tracer.tape_steps == 1
    assert tracer.unattributed_steps == 1


def test_child_spans_nest_inside_their_parents(tmp_path):
    tracer = traced(tiny_train(tmp_path, "adaptive"))
    start, end = tracer.span_start, tracer.span_end
    parent, depth = tracer.span_parent, tracer.span_depth
    assert len(start) > 100
    roots = [i for i in range(len(start)) if parent[i] < 0]
    assert [tracer.names[tracer.span_name[i]] for i in roots] == ["cli.main"]
    for i in range(len(start)):
        assert start[i] <= end[i]
        p = parent[i]
        if p >= 0:
            assert p < i
            assert start[p] <= start[i] and end[i] <= end[p]
            assert depth[i] == depth[p] + 1
    summary = tracer.summary()
    for agg in summary.values():
        assert 0 <= agg["self"] <= agg["fwd"]
        assert 0 <= agg["bwd_own"] <= agg["bwd"]
    assert tracer.covered_ns() <= summary["cli.main"]["fwd"]


def test_every_wrapped_attribute_is_restored(tmp_path):
    before = attribute_snapshot()
    originals = {"embed": tm.model.embed_neighbors, "matmul": tm.numcore.matmul,
                 "record": tm.numcore.Tape.record, "flops": vars(tm.numcore.Tape)["flops"]}
    tracer = Tracer(tm)
    with tracer:
        # wrapped where callers look the functions up, including by-name imports
        assert tm.model.embed_neighbors is not originals["embed"]
        assert tm.encoders.embed_neighbors is tm.model.embed_neighbors
        assert tm.numcore.matmul is not originals["matmul"]
        assert tm.numcore.Tape.record is not originals["record"]
        assert vars(tm.numcore.Tape)["flops"] is not originals["flops"]
    after = attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    with pytest.raises(RuntimeError):
        with Tracer(tm):
            raise RuntimeError("traced code failed")
    assert all(attribute_snapshot()[k] is before[k] for k in before)
    assert inspect.isfunction(tm.cli.main) and not hasattr(tm.cli.main, "__wrapped__")


def test_exact_counts_repeat(tmp_path):
    argv = tiny_train(tmp_path, "adaptive")
    runs = [layers.compute(traced(argv, run_id=i), 1, 1) for i in range(2)]
    exact = [{k: r[k] for k in layers.exact_names()} for r in runs]
    assert exact[0] == exact[1]
    assert exact[0]["numcore.matmul.calls"] > 0
    assert exact[0]["numcore.flops_per_batch"] > 0


def test_benchmark_file_lists_what_the_benchmark_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert doc["per_layer"] == layers.metric_list()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
