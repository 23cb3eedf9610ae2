"""The benchmark's workloads: inputs made from the workload seed, the CLI
command each one runs, and the check of that command's outputs.

The program receives only what set-up writes here: a JSON run spec (with the
synthetic stream's parameters and data seed) and, for ``eval-wide``, a
checkpoint. Every workload is a closed loop: one command at a time in one
process.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHECK_PAIRS = 40  # pairs scored both ways by the eval-wide agreement check
CHECK_ATOL = 1e-12  # the suite's batched-vs-per-sequence tolerance


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "train" or "eval"
    why: str
    stream: dict  # tgraph.SyntheticSpec fields
    model: dict  # model.ModelConfig fields
    train: dict  # traineval.TrainConfig fields, without the seed

    def spec(self, seed: int, out_dir: Path) -> dict:
        return {"data": {"synthetic": self.stream, "seed": seed},
                "model": self.model,
                "train": dict(self.train, seed=seed),
                "out": str(out_dir)}


PERIODIC = {"pattern": "periodic", "p_repeat": 0.9}
SMALL_MODEL = {"dim": 32, "time_dim": 100, "spans": [2, 4], "n_max": 8}

WORKLOADS = {w.name: w for w in (
    # The ROADMAP's acceptance workload (criterion 5). Small batches of about
    # 300 keys that fit in cache: per-key batch assembly, the channel-mixer
    # GELU and tape backward all carry weight. The only adaptive workload that
    # runs backward and Adam. Patience equals the epoch count, so early
    # stopping never shortens a run.
    Workload(
        name="train-periodic", command="train",
        why="acceptance workload: adaptive train with backward and Adam on "
            "small cache-resident batches, where per-key assembly and GELU weigh",
        stream=dict(PERIODIC, n_src=10, n_dst=10, n_events=10_000),
        model=dict(SMALL_MODEL, mixer="adaptive"),
        train={"epochs": 2, "lr": 3e-3, "batch_size": 100, "patience": 2}),
    # The same encoder, mixer and model layers in the opposite regime: forward
    # only, one scoring batch of about 9,000 keys (180k token rows, far beyond
    # cache). 100+100 nodes make the one-hot edge features 200 wide; spans
    # 2,4,8 are the paper's 3-layer schedule. A backward-only gain should not
    # show here; forward-kernel and assembly gains should.
    Workload(
        name="eval-wide", command="eval",
        why="forward-only scoring of one ~9k-key batch far beyond cache, 3 layers: "
            "forward and assembly gains show, backward-only gains must not",
        stream=dict(PERIODIC, n_src=100, n_dst=100, n_events=20_000),
        model={"dim": 32, "time_dim": 100, "spans": [2, 4, 8], "n_max": 20,
               "mixer": "adaptive"},
        train={}),
    # The only workload on the per-sequence path (_stacked_reprs ->
    # node_repr_value -> embed_neighbors -> token_block): about 216k matmul
    # calls per epoch. It is also the paper's O(N^2) baseline.
    Workload(
        name="train-attention", command="train",
        why="attention baseline on the per-sequence path: ~216k tape matmuls per "
            "epoch, where per-call overhead and the O(N^2) mixer weigh",
        stream=dict(PERIODIC, n_src=10, n_dst=10, n_events=4_000),
        model=dict(SMALL_MODEL, mixer="attention"),
        train={"epochs": 1, "lr": 3e-3, "batch_size": 100, "patience": 1}),
)}


@dataclass
class Prepared:
    """One workload instance on disk, ready to run."""

    workload: Workload
    seed: int
    directory: Path
    config: Path
    checkpoint: Path | None

    def argv(self) -> list[str]:
        args = [self.workload.command]
        if self.checkpoint is not None:
            args.append(str(self.checkpoint))
        return args + ["--config", str(self.config)]

    @property
    def out_dir(self) -> Path:
        return self.directory / "out"


def prepare(tm, workload: Workload, seed: int, directory: Path) -> Prepared:
    """Write the run spec and, for ``eval``, a checkpoint from the seed.

    The checkpoint's ``pred.w2`` is drawn from the seed: the untrained zero
    ``pred.w2`` would score every pair 0.5 and hide ordering errors.
    """
    directory.mkdir(parents=True, exist_ok=True)
    config = directory / "run.json"
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(workload.spec(seed, directory / "out"), fh, indent=2)
    checkpoint = None
    if workload.command == "eval":
        cfg = tm.model.ModelConfig.from_dict(workload.model)
        node_count = workload.stream["n_src"] + workload.stream["n_dst"]
        params = tm.model.init_params(cfg, node_dim=0, edge_dim=node_count, seed=seed)
        w2 = params.tensors["pred.w2"]
        w2[:] = np.random.default_rng([seed, 2]).normal(size=w2.shape)
        checkpoint = directory / "checkpoint.json"
        tm.model.save_checkpoint(params, checkpoint)
    return Prepared(workload, seed, directory, config, checkpoint)


def stream_of(tm, prepared: Prepared):
    spec = tm.tgraph.SyntheticSpec.from_dict(prepared.workload.stream)
    return tm.tgraph.generate_synthetic(spec, prepared.seed)


def work_items(tm, prepared: Prepared) -> int:
    """Items one command processes: training events x epochs for ``train``,
    scored pairs (positives plus one negative each) for ``eval``."""
    te = tm.traineval
    train_split, _, test_split = tm.tgraph.chronological_split(
        stream_of(tm, prepared), te.TRAIN_RATIO, te.VAL_RATIO)
    if prepared.workload.command == "train":
        return len(train_split) * prepared.workload.train["epochs"]
    return 2 * len(test_split)


def _unit_interval(x) -> bool:
    return isinstance(x, float) and 0.0 <= x <= 1.0


def check_outputs(prepared: Prepared, exit_code: int) -> tuple[list[str], dict]:
    """Problems found in one command's outputs, and its (ap, auc_roc).

    ``train``: exit code 0; metrics.json, checkpoint.json and loss_curve.csv
    parse; one finite loss per configured epoch; AP and AUC in [0, 1].
    ``eval``: exit code 0; eval.json parses with AP and AUC in [0, 1].
    """
    problems = []
    quality = {}
    if exit_code != 0:
        return [f"exit code {exit_code}"], quality
    out = prepared.out_dir
    try:
        if prepared.workload.command == "train":
            with open(out / "metrics.json", encoding="utf-8") as fh:
                metrics = json.load(fh)
            with open(out / "checkpoint.json", encoding="utf-8") as fh:
                json.load(fh)
            with open(out / "loss_curve.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            run = metrics["runs"][0]
            losses = run["epoch_losses"]
            if len(losses) != prepared.workload.train["epochs"]:
                problems.append(f"{len(losses)} epoch losses, expected "
                                f"{prepared.workload.train['epochs']}")
            if not all(isinstance(x, float) and math.isfinite(x) for x in losses):
                problems.append("non-finite epoch loss")
            if [float(r["loss"]) for r in rows] != losses:
                problems.append("loss_curve.csv disagrees with metrics.json")
            quality = {"ap": run["ap"], "auc_roc": run["auc_roc"]}
        else:
            with open(out / "eval.json", encoding="utf-8") as fh:
                doc = json.load(fh)
            quality = {"ap": doc["ap"], "auc_roc": doc["auc_roc"]}
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], {}
    for key, value in quality.items():
        if not _unit_interval(value):
            problems.append(f"{key}={value!r} outside [0, 1]")
    return problems, quality


def check_scores(tm, prepared: Prepared) -> list[str]:
    """``eval``: a seeded sample of test pairs scored by ``score_pairs`` agrees
    with ``node_repr`` + ``predict_link`` within the suite's tolerance."""
    if prepared.workload.command != "eval":
        return []
    md, tg, te = tm.model, tm.tgraph, tm.traineval
    stream = stream_of(tm, prepared)
    _, _, test_split = tg.chronological_split(stream, te.TRAIN_RATIO, te.VAL_RATIO)
    store = tg.TemporalStore(stream)
    params = md.load_checkpoint(prepared.checkpoint)
    rng = np.random.default_rng([prepared.seed, 3])
    candidates = stream.destinations()
    pairs = []
    for i in rng.choice(len(test_split), size=CHECK_PAIRS // 2, replace=False):
        u, v, t = int(test_split.src[i]), int(test_split.dst[i]), float(test_split.t[i])
        pairs += [(u, v, t), (u, tg.sample_negative(rng, u, v, candidates), t)]
    fast = md.score_pairs(params, store, pairs)
    slow = np.array([md.predict_link(md.node_repr(store, u, t, params.config, params),
                                     md.node_repr(store, v, t, params.config, params),
                                     params)
                     for u, v, t in pairs])
    worst = float(np.max(np.abs(fast - slow)))
    if not worst <= CHECK_ATOL:
        return [f"score_pairs differs from node_repr + predict_link by {worst:.3g}"]
    return []
