"""Tests for the command-line surface."""

import csv
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from tempomix import cli
from tempomix import model as md
from tempomix import numcore as nc
from tempomix import tgraph as tg
from tempomix.cli import main

OVERLAPPING_IDS = str(Path(__file__).parent / "data" / "overlapping_ids.csv")


SYNTH = json.dumps({"n_src": 5, "n_dst": 5, "n_events": 300,
                    "pattern": "periodic", "p_repeat": 0.9})

# a JSON integer too large for an int64 or a float64 field
HUGE = 10**400

FAST = ["--synthetic", SYNTH, "--dim", "8", "--time-dim", "8", "--spans", "2",
        "--n-max", "5", "--epochs", "2", "--batch-size", "100", "--lr", "0.003",
        "--patience", "5", "--seed", "0"]


def strip_timing(doc):
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items() if k != "timing"}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


class TestTrainCommand:
    def test_synthetic_run_writes_three_artifacts(self, tmp_path, capsys):
        rc = main(["train", *FAST, "--out", str(tmp_path)])
        assert rc == 0
        for name in ("metrics.json", "checkpoint.json", "loss_curve.csv"):
            assert (tmp_path / name).exists()
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and str(tmp_path / "metrics.json") in out[0]

    def test_missing_dataset_exits_two_and_names_path(self, tmp_path, capsys):
        rc = main(["train", "--dataset", "/nowhere/data.csv", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "/nowhere/data.csv" in err

    def test_multi_run_mean_and_std(self, tmp_path):
        rc = main(["train", *FAST, "--runs", "3", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "metrics.json").read_text())
        aps = [r["ap"] for r in doc["runs"]]
        assert len(aps) == 3
        mean = sum(aps) / 3
        std = math.sqrt(sum((a - mean) ** 2 for a in aps) / 3)
        assert doc["ap"]["mean"] == pytest.approx(mean, abs=1e-12)
        assert doc["ap"]["std"] == pytest.approx(std, abs=1e-12)
        assert {r["seed"] for r in doc["runs"]} == {0, 1, 2}

    def test_rerun_is_byte_identical_apart_from_timing(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", *FAST, "--out", str(out1)]) == 0
        assert main(["train", *FAST, "--out", str(out2)]) == 0
        d1 = json.loads((out1 / "metrics.json").read_text())
        d2 = json.loads((out2 / "metrics.json").read_text())
        assert json.dumps(strip_timing(d1), sort_keys=True) == \
            json.dumps(strip_timing(d2), sort_keys=True)
        assert (out1 / "checkpoint.json").read_bytes() == \
            (out2 / "checkpoint.json").read_bytes()
        assert (out1 / "loss_curve.csv").read_bytes() == \
            (out2 / "loss_curve.csv").read_bytes()

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg = {
            "data": {"synthetic": json.loads(SYNTH), "seed": 3},
            "model": {"dim": 8, "time_dim": 8, "spans": [2], "n_max": 5},
            "train": {"epochs": 1, "batch_size": 100, "lr": 0.003},
            "out": str(tmp_path / "from_file"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(cfg_path), "--epochs", "2"])
        assert rc == 0
        doc = json.loads((tmp_path / "from_file" / "metrics.json").read_text())
        assert len(doc["runs"][0]["epoch_losses"]) == 2  # flag beat the file

    def test_huge_seeds_and_counts_run(self, tmp_path):
        # these stay Python ints, so no int64 bound applies to them
        cfg = {"data": {"synthetic": json.loads(SYNTH), "seed": HUGE},
               "model": {"dim": 8, "time_dim": 8, "spans": [2], "n_max": 5},
               "train": {"epochs": HUGE, "batch_size": HUGE, "patience": 0, "seed": HUGE}}
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert doc["runs"][0]["seed"] == HUGE and len(doc["runs"][0]["epoch_losses"]) == 1
        cfg["train"]["patience"] = HUGE
        cfg["train"]["epochs"] = 1
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "out2")]) == 0

    def test_both_data_sources_rejected(self, tmp_path, capsys):
        rc = main(["train", *FAST, "--dataset", __file__, "--out", str(tmp_path)])
        assert rc == 2


class TestPathErrors:
    """A path that names a directory, or an ``--out`` that names a file, is a
    usage error (exit 2) that names the path, and nothing is written."""

    @pytest.mark.parametrize("argv", [
        ["train", "--config", "DIR", "--out", "OUT"],
        ["train", "--dataset", "DIR", "--out", "OUT"],
        ["eval", "DIR", *FAST, "--out", "OUT"],
        ["ingest", "DIR", "--out", "OUT"],
        ["train", *FAST, "--out", "FILE"],
    ], ids=["config_dir", "dataset_dir", "checkpoint_dir", "ingest_dir", "out_file"])
    def test_exits_two_and_names_the_path(self, tmp_path, capsys, argv):
        paths = {name: tmp_path / name.lower() for name in ("DIR", "FILE", "OUT")}
        paths["DIR"].mkdir()
        paths["FILE"].write_text("")
        named = paths["FILE" if "FILE" in argv else "DIR"]
        assert main([str(paths.get(a, a)) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(named) in err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [paths["FILE"]]
        assert paths["FILE"].read_text() == ""


class TestOutAfterInputs:
    """``--out`` is created only once the inputs are read, so a run that fails
    on its input (exit 2) leaves no output directory behind."""

    @pytest.mark.parametrize("argv", [
        ["train", "--dataset", "DIR"],
        ["train", "--synthetic", '{"n_events": 300, "time_step": Infinity}'],
        ["eval", "MISSING", "--synthetic", '{"n_events": 300}'],
        ["eval", "DIR", *FAST],
        ["ablate", "--dataset", "DIR"],
        ["ablate", *FAST, "--mixer", "pooling"],
    ], ids=["train_dataset_dir", "train_infinite_time_step", "eval_missing_checkpoint",
            "eval_checkpoint_dir", "ablate_dataset_dir", "ablate_pooling"])
    def test_failed_input_leaves_no_directory(self, tmp_path, argv):
        paths = {"DIR": tmp_path / "dir", "MISSING": tmp_path / "missing.json"}
        paths["DIR"].mkdir()
        out = tmp_path / "out"
        assert main([str(paths.get(a, a)) for a in argv] + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv,named", [
        (["train", *FAST, "--spans", ""], "--spans"),
        (["train", *FAST, "--seed", "-1"], "--seed"),
        (["train", "--synthetic", '{"n_src": 1, "n_dst": 1, "n_events": 300}'],
         "no negative candidate"),
        (["ablate", "--synthetic", '{"n_events": 2}'], "empty train or validation split"),
        (["bench", "--repeats", "-1"], "repeats"),
        (["bench", "--mixers", "adaptive,bogus", "--lengths", "8,16,32"], "bench bogus"),
        (["train", "--config", {"data": {"synthetic": {"n_events": 300}, "seed": -1}}],
         "data 'seed'"),
        (["eval", "CKPT", "--synthetic", '{"n_events": 2, "edge_feat_kind": "none"}'],
         "no negative candidate"),
        (["eval", "CKPT", "--synthetic", '{"n_events": 0, "edge_feat_kind": "none"}'],
         "empty stream"),
        (["eval", "CKPT", "--synthetic",
          '{"n_src": 1, "n_dst": 1, "n_events": 300, "edge_feat_kind": "none"}'],
         "no negative candidate"),
        (["bench", "--seed", "-1", "--lengths", "8,16,32"], "--seed"),
        (["train", "--synthetic", '{"n_events": 300, "time_step": 1e308}'], "time_step"),
        *[(["train", "--synthetic", json.dumps({"n_events": 300, key: HUGE})], repr(key))
          for key in ("time_step", "n_events", "n_src", "n_dst")],
        *[(["train", "--config", {"data": {"synthetic": {"n_events": 300}},
                                  section: {key: value}}], repr(key)) for section, key, value in
          (("train", "lr", HUGE), ("model", "dim", HUGE), ("model", "time_dim", HUGE),
           ("model", "n_max", HUGE), ("model", "spans", [2, HUGE]), ("model", "n_max", 2**63))],
        # past memory but not past an int64: the tensor that cannot be
        # allocated (the MLP's tw1 has more bytes than an int64 can count)
        *[([command, "--config", {"data": {"synthetic": {"n_events": 300}}, "model": model}],
           f"model config: tensor {tensor!r}")
          for command, model, tensor in (
              ("train", {"dim": 2**40}, "enc.edge"),
              ("train", {"time_dim": 2**40}, "enc.time"),
              ("train", {"mixer": "mlp", "n_max": 2**40}, "layer0.tw1"),
              ("ablate", {"dim": 2**40, "no_cm": True}, "enc.edge"))],
    ], ids=["empty_spans", "negative_seed", "one_destination", "too_short_to_split",
            "bench_repeats", "bench_unknown_mixer", "negative_synthetic_seed",
            "eval_one_candidate", "eval_empty_stream", "eval_one_destination",
            "bench_negative_seed", "overflowing_time_step", "huge_time_step", "huge_n_events",
            "huge_n_src", "huge_n_dst", "huge_lr", "huge_dim", "huge_time_dim", "huge_n_max",
            "huge_span", "n_max_past_int64", "dim_past_memory", "time_dim_past_memory",
            "mlp_n_max_past_memory", "ablate_dim_past_memory"])
    def test_bad_input_exits_two_naming_it_before_out(self, tmp_path, capsys, argv, named):
        # a dict is a spec file's content; CKPT: a checkpoint that fits a
        # stream without node or edge features
        spec, ckpt = tmp_path / "spec.json", tmp_path / "ckpt.json"
        cfg = md.ModelConfig(dim=8, time_dim=8, spans=(2,), n_max=5)
        md.save_checkpoint(md.init_params(cfg, 0, 0, seed=0), ckpt)
        for a in argv:
            if isinstance(a, dict):
                spec.write_text(json.dumps(a))
        argv = [str(spec) if isinstance(a, dict) else str(ckpt) if a == "CKPT" else a
                for a in argv]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()


class TestEmptyOut:
    """An empty output path is a usage error, not the current directory or
    the default ``out/``: nothing is written."""

    @pytest.mark.parametrize("argv,named", [
        (["train", *FAST, "--out", ""], "--out"),
        (["train", *FAST, "--config", "spec.json"], "'out'"),
        (["eval", "ckpt.json", *FAST, "--out", ""], "--out"),
        (["bench", "--lengths", "8,16,32", "--repeats", "1", "--out", ""], "--out"),
        (["ingest", OVERLAPPING_IDS, "--out", ""], "--out"),
    ], ids=["train_flag", "spec_field", "eval", "bench", "ingest"])
    def test_exits_two_naming_it_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                     argv, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.json").write_text(json.dumps({"out": ""}))
        cfg = md.ModelConfig(dim=8, time_dim=8, spans=(2,), n_max=5)
        md.save_checkpoint(md.init_params(cfg, 10, 10, seed=0), tmp_path / "ckpt.json")
        files = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert sorted(tmp_path.rglob("*")) == files


class FakeLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def no_libc():
    raise OSError("no C library")


@pytest.fixture
def fresh_heap_setting():
    cli._keep_freed_heap.cache_clear()
    yield
    cli._keep_freed_heap.cache_clear()


@pytest.mark.usefixtures("fresh_heap_setting")
class TestHeapSetting:
    def test_main_sets_both_thresholds_once_per_process(self, monkeypatch, tmp_path):
        libc = FakeLibc()
        monkeypatch.setattr(cli, "_libc", lambda: libc)
        for _ in range(2):
            assert main(["train", "--dataset", str(tmp_path / "none.csv")]) == 2
        # glibc's M_MMAP_THRESHOLD is -3, M_TRIM_THRESHOLD is -1 and M_ARENA_MAX
        # is -8 (malloc.h)
        assert libc.calls == [(-3, cli.M_MMAP_THRESHOLD), (-1, cli.M_TRIM_THRESHOLD), (-8, 1)]
        assert (cli.M_MMAP_THRESHOLD, cli.M_TRIM_THRESHOLD) == (32 * 2**20, 128 * 2**20)

    @pytest.mark.parametrize("libc", [no_libc, object])
    def test_train_without_mallopt_writes_identical_artifacts(self, monkeypatch, tmp_path,
                                                              libc):
        assert main(["train", *FAST, "--out", str(tmp_path / "a")]) == 0
        cli._keep_freed_heap.cache_clear()
        monkeypatch.setattr(cli, "_libc", libc)
        assert main(["train", *FAST, "--out", str(tmp_path / "b")]) == 0
        for name in ("checkpoint.json", "loss_curve.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        docs = [json.loads((tmp_path / run / "metrics.json").read_text()) for run in "ab"]
        assert strip_timing(docs[0]) == strip_timing(docs[1])


class TestRowWorker:
    def test_main_starts_the_worker_and_pins_blas_once(self, monkeypatch, tmp_path):
        pins = []
        monkeypatch.setattr(nc, "_row_worker", None)
        monkeypatch.setattr(nc, "_blas_to_one_thread", lambda: pins.append(1) or True)
        monkeypatch.setattr(nc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        try:
            for _ in range(2):
                assert main(["train", "--dataset", str(tmp_path / "none.csv")]) == 2
                assert isinstance(nc._row_worker, ThreadPoolExecutor)
            assert pins == [1]
        finally:
            if nc._row_worker is not None:
                nc._row_worker.shutdown()

    @pytest.mark.parametrize("mixer", ["adaptive", "attention", "mlp"])
    def test_train_with_worker_off_and_on_writes_identical_artifacts(self, monkeypatch,
                                                                     tmp_path, mixer):
        rows = []
        row_passes = nc._row_passes

        def counted(m, fn=None, block=1, tasks=()):
            rows.append(m)
            row_passes(m, fn, block, tasks)

        monkeypatch.setattr(nc, "_row_passes", counted)
        monkeypatch.setattr(nc, "_start_row_worker", lambda: None)
        monkeypatch.setattr(nc, "_row_worker", None)
        argv = ["train", *FAST, "--mixer", mixer]
        assert main([*argv, "--out", str(tmp_path / "a")]) == 0
        with ThreadPoolExecutor(max_workers=1) as worker:
            monkeypatch.setattr(nc, "_row_worker", worker)
            assert main([*argv, "--out", str(tmp_path / "b")]) == 0
        assert max(rows) > nc._ROW_CHUNK  # the passes were split
        for name in ("checkpoint.json", "loss_curve.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        docs = [json.loads((tmp_path / run / "metrics.json").read_text()) for run in "ab"]
        assert strip_timing(docs[0]) == strip_timing(docs[1])


    def test_checkpoints_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """``main`` holds OpenBLAS to one thread from its start, so a GEMM over a
        K whose sum OpenBLAS blocks by its thread count gives the same bits
        under any OPENBLAS_NUM_THREADS. Here each batch of 25 queries scores
        75 distinct keys of 8 token rows, so every layer's weight gradients
        sum over K = 600 rows, a K at which one and two threads differ."""
        if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one core: main leaves OpenBLAS its thread count")
        # this process runs main in other tests, which pins OpenBLAS as well
        if not nc._blas_to_one_thread():
            pytest.skip("no bundled OpenBLAS to hold to one thread")
        synth = json.dumps({"n_src": 20, "n_dst": 20, "n_events": 400, "pattern": "periodic"})
        argv = ["train", "--synthetic", synth, "--dim", "32", "--time-dim", "8",
                "--spans", "2,4", "--n-max", "8", "--epochs", "1", "--batch-size", "25",
                "--lr", "0.003", "--patience", "1", "--seed", "0"]
        src = str(Path(cli.__file__).resolve().parents[1])
        run = "import sys; from tempomix.cli import main; sys.exit(main(sys.argv[1:]))"
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            subprocess.run([sys.executable, "-c", run, *argv, "--out", str(tmp_path / threads)],
                           env=env, check=True, capture_output=True)
        for name in ("checkpoint.json", "loss_curve.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


class TestEvalCommand:
    def test_checkpoint_round_trip_evaluation(self, tmp_path):
        assert main(["train", *FAST, "--out", str(tmp_path)]) == 0
        rc = main(["eval", str(tmp_path / "checkpoint.json"), *FAST,
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "eval.json").read_text())
        assert 0.0 <= doc["ap"] <= 1.0 and 0.0 <= doc["auc_roc"] <= 1.0

    def test_stream_with_an_empty_validation_split_evaluates(self, tmp_path):
        # 6 events split 4/0/2: eval needs only a test split and two candidates
        cfg = md.ModelConfig(dim=8, time_dim=8, spans=(2,), n_max=5)
        md.save_checkpoint(md.init_params(cfg, 0, 0, seed=0), tmp_path / "ckpt.json")
        synth = json.dumps({"n_events": 6, "edge_feat_kind": "none"})
        assert main(["eval", str(tmp_path / "ckpt.json"), "--synthetic", synth,
                     "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "eval.json").read_text())
        assert 0.0 <= doc["ap"] <= 1.0 and 0.0 <= doc["auc_roc"] <= 1.0

    def test_feature_dims_other_than_the_streams_exit_two(self, tmp_path, capsys):
        # FAST's stream has no node features and 10 one-hot edge features
        cfg = md.ModelConfig(dim=8, time_dim=8, spans=(2,), n_max=5)
        md.save_checkpoint(md.init_params(cfg, 0, 9, seed=0), tmp_path / "ckpt.json")
        rc = main(["eval", str(tmp_path / "ckpt.json"), *FAST, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "(0, 9)" in err and "(0, 10)" in err
        assert not (tmp_path / "eval.json").exists()


def malform(doc: dict, case: str) -> str:
    """Break checkpoint ``doc`` in the way ``case`` names; returns the name of
    the tensor or field that it breaks."""
    tensors = doc["tensors"]
    w1 = tensors["layer0.ff_w1"]
    if case == "missing":
        del tensors["layer0.ff_w1"]
    elif case == "extra":
        tensors["layer0.bogus"] = {"shape": [1, 1], "data": [0.0]}
        return "layer0.bogus"
    elif case == "transposed":
        rows, cols = w1["shape"]
        w1["data"] = [w1["data"][r * cols + c] for c in range(cols) for r in range(rows)]
        w1["shape"] = [cols, rows]
    elif case == "short_data":
        w1["data"].pop()
    elif case == "one_d_shape":
        tensors["pred.b2"]["shape"] = [1]
        return "pred.b2"
    elif case == "nan":
        w1["data"][0] = float("nan")
    elif case == "node_dim":
        doc["node_dim"] = 5  # beside a 0-row enc.node
        return "enc.node"
    elif case == "no_config":
        del doc["config"]
        return "config"
    elif case in ("fractional_node_dim", "string_node_dim"):
        doc["node_dim"] = 0.5 if case == "fractional_node_dim" else "x"
        return "node_dim"
    elif case == "string_entry":
        w1["data"][3] = "x"
    elif case == "huge_entry":
        w1["data"][3] = HUGE
    elif case == "huge_node_dim":
        doc["node_dim"] = HUGE
        return "node_dim"
    elif case == "no_data":
        del w1["data"]
    elif case == "list_tensor":
        tensors["layer0.ff_w1"] = w1["data"]
    elif case == "float_dim":
        doc["config"]["dim"] = float(doc["config"]["dim"])
        return "dim"
    elif case == "string_spans":
        doc["config"]["spans"] = "2,4"
        return "spans"
    elif case == "parent_no_cm":
        # before no_cm dropped them, a no_cm model drew its channel-mixer
        # tensors with the default config's bytes
        doc["config"]["no_cm"] = True
    return "layer0.ff_w1"


class TestMalformedCheckpoint:
    """A checkpoint that differs from its config's tensor table is a usage
    error (exit 2) that names the tensor or field, before anything is scored."""

    @pytest.mark.parametrize("case", ["missing", "extra", "transposed", "short_data",
                                      "one_d_shape", "nan", "node_dim", "no_config",
                                      "fractional_node_dim", "string_node_dim",
                                      "string_entry", "huge_entry", "huge_node_dim", "no_data",
                                      "list_tensor", "float_dim", "string_spans",
                                      "parent_no_cm"])
    def test_eval_exits_two_and_names_it(self, tmp_path, capsys, case):
        cfg = md.ModelConfig(dim=8, time_dim=8, spans=(2,), n_max=5)
        md.save_checkpoint(md.init_params(cfg, 0, 10, seed=0), tmp_path / "ckpt.json")
        doc = json.loads((tmp_path / "ckpt.json").read_text())
        name = malform(doc, case)
        (tmp_path / "ckpt.json").write_text(json.dumps(doc))
        rc = main(["eval", str(tmp_path / "ckpt.json"), *FAST, "--out", str(tmp_path)])
        assert rc == 2
        assert repr(name) in capsys.readouterr().err
        assert not (tmp_path / "eval.json").exists()


class TestAblateCommand:
    def test_six_variants_with_pinned_fusion(self, tmp_path):
        rc = main(["ablate", *FAST, "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "ablation.json").read_text())
        assert set(doc["variants"]) == {"full", "no_lp", "no_rt", "relu",
                                        "no_resnet", "no_cm"}
        with open(tmp_path / "ablation.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["variant", "ap", "auc_roc"]
        assert len(rows) == 7

        no_lp = md.load_checkpoint(tmp_path / "checkpoint_no_lp.json")
        assert md.effective_fusions(no_lp) == [0.0]
        no_rt = md.load_checkpoint(tmp_path / "checkpoint_no_rt.json")
        assert md.effective_fusions(no_rt) == [1.0]
        relu = md.load_checkpoint(tmp_path / "checkpoint_relu.json")
        assert relu.config.activation == "relu"
        full = md.load_checkpoint(tmp_path / "checkpoint_full.json")
        assert all(0.0 < b < 1.0 for b in md.effective_fusions(full))


class TestBenchCommand:
    def test_csv_schema_and_slopes(self, tmp_path):
        rc = main(["bench", "--lengths", "32,64,128", "--repeats", "1",
                   "--mixers", "adaptive,pooling,mlp,attention",
                   "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "bench.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mixer", "N", "median_ns", "slope"]
        assert len(rows) == 1 + 4 * 3
        doc = json.loads((tmp_path / "bench.json").read_text())
        assert doc["adaptive"]["ops_slope"] < doc["attention"]["ops_slope"]

    def test_repeats_do_not_change_schema(self, tmp_path):
        for repeats, sub in (("1", "r1"), ("9", "r9")):
            rc = main(["bench", "--lengths", "32,64,128", "--repeats", repeats,
                       "--mixers", "adaptive", "--out", str(tmp_path / sub)])
            assert rc == 0
        h1 = open(tmp_path / "r1" / "bench.csv").readline()
        h9 = open(tmp_path / "r9" / "bench.csv").readline()
        assert h1 == h9

    def test_too_few_lengths_rejected(self, tmp_path, capsys):
        rc = main(["bench", "--lengths", "64,128", "--out", str(tmp_path)])
        assert rc == 2

    def test_pooling_measures_the_adaptive_kernel(self, tmp_path):
        rc = main(["bench", "--lengths", "64,256,1024", "--repeats", "1",
                   "--mixers", "adaptive,pooling", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "bench.json").read_text())
        ops = {m: [p["ops"] for p in doc[m]["points"]] for m in ("adaptive", "pooling")}
        assert ops["pooling"] == ops["adaptive"]
        assert doc["pooling"]["ops_slope"] <= 1.05

    def test_unknown_mixer_fails_before_measuring(self, tmp_path, capsys, monkeypatch):
        def measured(*args):
            raise AssertionError("a mixer was measured")

        monkeypatch.setattr(cli, "_bench_forward", measured)
        rc = main(["bench", "--lengths", "32,64,128", "--repeats", "1",
                   "--mixers", "adaptive,bogus", "--out", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "bench.csv").exists()
        assert "bogus" in capsys.readouterr().err

    def test_out_that_is_a_file_fails_before_measuring(self, tmp_path, monkeypatch):
        def measured(*args):
            raise AssertionError("a mixer was measured")

        monkeypatch.setattr(cli, "_bench_forward", measured)
        out = tmp_path / "file"
        out.write_text("")
        assert main(["bench", "--lengths", "8,16,32", "--repeats", "1", "--out", str(out)]) == 2
        assert out.read_text() == ""

    @pytest.mark.parametrize("kernel", ["0", "-1"])
    def test_kernel_below_one_is_a_usage_error(self, tmp_path, capsys, kernel):
        rc = main(["bench", "--lengths", "32,64,128", "--repeats", "1",
                   "--mixers", "adaptive", "--kernel", kernel, "--out", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "bench.csv").exists()
        assert "offset" in capsys.readouterr().err


class TestIngestCommand:
    def test_summary_line(self, tmp_path, capsys):
        p = tmp_path / "tiny.csv"
        p.write_text("src,dst,timestamp,label\nA,B,1.0,0\nC,D,2.0,0\nA,C,3.0,1\n")
        rc = main(["ingest", str(p)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nodes=4" in out and "links=3" in out

    def test_bipartite_flag_counts_users_and_items(self, tmp_path, capsys):
        assert main(["ingest", OVERLAPPING_IDS]) == 0
        assert "nodes=3 " in capsys.readouterr().out
        assert main(["ingest", OVERLAPPING_IDS, "--bipartite"]) == 0
        assert "nodes=5 " in capsys.readouterr().out

    @pytest.mark.parametrize("row", ["A,B,nan,0,0.5", "A,B,1.0,0,inf", "A,B,1.0,inf,0.5"])
    def test_non_finite_value_exits_two_and_names_the_line(self, tmp_path, capsys, row):
        p = tmp_path / "bad.csv"
        p.write_text(f"src,dst,timestamp,label,f0\nA,C,0.5,0,0.5\n{row}\n")
        assert main(["ingest", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "line 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_default_normalized_copy_unchanged_by_the_option(self, tmp_path):
        plain, flagged = tmp_path / "plain", tmp_path / "flagged"
        assert main(["ingest", OVERLAPPING_IDS, "--out", str(plain)]) == 0
        tg.write_csv(tg.ingest_csv(OVERLAPPING_IDS, bipartite=False), tmp_path / "want.csv")
        assert (plain / "ingested.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert main(["ingest", OVERLAPPING_IDS, "--bipartite", "--out", str(flagged)]) == 0
        assert (flagged / "ingested.csv").read_bytes() != (plain / "ingested.csv").read_bytes()


class TestBipartiteRunSpec:
    def test_spec_data_option_reaches_ingest(self, tmp_path):
        spec = tmp_path / "run.json"
        spec.write_text(json.dumps({"data": {"path": OVERLAPPING_IDS, "bipartite": True}}))
        resolved = cli.resolve_run_spec(cli.build_parser().parse_args(
            ["train", "--config", str(spec)]))
        assert resolved.bipartite
        assert resolved.load_stream().node_count == 5

    def test_rejected_for_a_synthetic_stream(self, tmp_path, capsys):
        spec = tmp_path / "run.json"
        spec.write_text(json.dumps({"data": {"synthetic": json.loads(SYNTH),
                                             "bipartite": True}}))
        assert main(["train", "--config", str(spec), "--out", str(tmp_path)]) == 2
        assert "bipartite" in capsys.readouterr().err


class TestSpecContentErrors:
    """Spec content that no config takes is a usage error (exit 2) naming the
    key, found before any training, as an unknown model key is."""

    @pytest.mark.parametrize("section,content,key", [
        ("train", {"bogus": 3}, "bogus"),
        ("data", {"synthetic": json.loads(SYNTH), "seed": "x"}, "seed"),
        ("model", {"dim": "8"}, "dim"),
        ("model", {"no_cm": "false"}, "no_cm"),
        ("model", 3, "model"),
    ])
    def test_exits_two_and_names_the_key(self, tmp_path, capsys, section, content, key):
        spec = tmp_path / "run.json"
        spec.write_text(json.dumps({"data": {"synthetic": json.loads(SYNTH)},
                                    section: content}))
        assert main(["train", "--config", str(spec), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err
        assert not (tmp_path / "out" / "metrics.json").exists()


class TestFlagValueErrors:
    """A flag value that no run or bench takes is a usage error (exit 2) found
    before anything is trained, measured or written."""

    @pytest.mark.parametrize("flags", [["--spans", "2,x"], ["--runs", "0"],
                                       ["--mixer", "attention", "--no-lp"],
                                       ["--mixer", "pooling", "--no-rt"],
                                       ["--lr", "nan"], ["--lr", "inf"]])
    def test_train_exits_two(self, tmp_path, capsys, flags):
        rc = main(["train", "--synthetic", '{"n_events": 50}', *flags,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("flags", [["--lengths", "4,x,16"], ["--lengths", "8,8,8"],
                                       ["--lengths", "4,8,8"],
                                       ["--dim", "0", "--mixers", "mlp"]])
    def test_bench_exits_two(self, tmp_path, capsys, monkeypatch, flags):
        def measured(*args):
            raise AssertionError("a mixer was measured")

        monkeypatch.setattr(cli, "_bench_forward", measured)
        rc = main(["bench", *flags, "--repeats", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "bench.csv").exists()
