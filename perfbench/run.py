"""tempomix benchmark: one workload per process, the CLI called in process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-periodic --seed 1 --seconds 35 --trace 0

``--trace 0`` measures end to end: set-up, then the workload's command run
back to back until ``--seconds`` have passed, reporting medians. ``--trace 1``
runs the command traced, once untraced, then traced again, and reports the
per-layer metrics of the second traced run; the exact counts of every traced
run must agree. Each command's outputs are checked outside the timed region.

A table goes to stdout, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record, with
the machine it ran on, is written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import machine
from tracer import Tracer
from workloads import WORKLOADS, check_outputs, check_scores, prepare, work_items

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
MIN_TRACED = 2

# end-to-end metrics of an untraced run, with their units
END_TO_END = {"throughput_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def import_program():
    """Import ``tempomix`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tempomix" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tempomix sources under {src}")
    sys.path.insert(0, str(src))
    import tempomix
    import tempomix.cli  # noqa: F401  (not imported by the package itself)

    if not Path(tempomix.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: tempomix was imported from {tempomix.__file__}")
    return tempomix


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the program and exits."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import tempomix.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT, check=True)
    return time.perf_counter() - start


def run_command(tm, prepared, tracer=None) -> dict:
    """One CLI call in process; its outputs are checked after the clock stops."""
    shutil.rmtree(prepared.out_dir, ignore_errors=True)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter_ns()
            code = tm.cli.main(prepared.argv())
            wall_ns = time.perf_counter_ns() - start
    problems, quality = check_outputs(prepared, code)
    if code != 0:
        problems.append(f"stderr: {err.getvalue().strip()[-500:]}")
    return {"wall_ns": wall_ns, "exit_code": code, "problems": problems, "quality": quality}


def _keep_going(loop_start: float, walls_ns: list[int], seconds: float) -> bool:
    """Start another command only if it should end within the run's seconds."""
    elapsed = time.perf_counter() - loop_start
    return elapsed + statistics.median(walls_ns) / 1e9 <= seconds


def _check_program(tm, prepared, commands: list[dict]) -> None:
    """Checks across commands: reruns of one spec must reproduce the first
    command's AP and AUC, and the eval scores must match the per-sequence
    path. A failure here fails every command it concerns."""
    first = commands[0]["quality"]
    for cmd in commands[1:]:
        if cmd["quality"] and first and cmd["quality"] != first:
            cmd["problems"].append(f"rerun gave {cmd['quality']}, first run {first}")
    for problem in check_scores(tm, prepared):
        for cmd in commands:
            cmd["problems"].append(problem)


def measure(tm, workload, seed: int, seconds: float, base: Path) -> tuple[dict, list[dict], dict]:
    """End-to-end metrics of untraced commands, and notes: the test AP and AUC.

    The test AP and AUC are printed, not gated: they are fixed for a code
    version and seed but vary from seed to seed, so no bound on their spread
    across seeds would hold.

    Set-up is timed ``SETUP_REPEATS`` times: a fresh interpreter importing
    the program, then writing the spec and, for ``eval``, the checkpoint.
    """
    setup_s = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = time.perf_counter()
        prepared = prepare(tm, workload, seed, base / "input")
        setup_s.append(imported + time.perf_counter() - start)

    commands = []
    loop_start = time.perf_counter()
    while not commands or _keep_going(loop_start, [c["wall_ns"] for c in commands], seconds):
        commands.append(run_command(tm, prepared))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    _check_program(tm, prepared, commands)
    wall_s = statistics.median(c["wall_ns"] for c in commands) / 1e9
    metrics = {
        "throughput_per_s": work_items(tm, prepared) / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_s),
    }
    quality = next((c["quality"] for c in commands if c["quality"]), {})
    notes = {f"test_{name}": (value, "ratio") for name, value in quality.items()}
    return metrics, commands, notes


def trace(tm, workload, seed: int, seconds: float, base: Path) -> tuple[dict, list[dict], dict]:
    """Per-layer metrics of a warm traced command, and notes: the number of
    optimiser steps behind ``traineval.step_ms``.

    Order: traced run 0 (it also warms the process), one untraced command,
    traced run 1, then more traced runs while time is left. The metrics come
    from run 1, timed against the untraced command just before it; every
    traced run must repeat run 0's exact counts.
    """
    prepared = prepare(tm, workload, seed, base / "input")
    loop_start = time.perf_counter()
    commands, traced, untraced = [], [], None
    metrics, counts, notes = None, None, {}
    while len(traced) < MIN_TRACED or _keep_going(loop_start, traced, seconds):
        run_id = len(traced)
        if run_id == 1:
            untraced = run_command(tm, prepared)
            commands.append(untraced)
        tracer = Tracer(tm, run_id=run_id)
        cmd = run_command(tm, prepared, tracer)
        commands.append(cmd)
        traced.append(cmd["wall_ns"])
        if tracer.unattributed_steps:
            cmd["problems"].append(f"{tracer.unattributed_steps} backward steps "
                                   "recorded outside any span")
        layer = layers.compute(tracer, cmd["wall_ns"], (untraced or cmd)["wall_ns"])
        exact = {name: layer[name] for name in layers.exact_names()}
        if counts is None:
            counts = exact
        elif exact != counts:
            diff = sorted(k for k in exact if exact[k] != counts[k])
            cmd["problems"].append(f"traced run {run_id} changed exact counts: {diff}")
        if run_id == 1:
            metrics = layer
            notes["traineval.step_ms.samples"] = (len(tracer.step_ns), "count")
            tracer.write_spans(base / "spans.json")
        del tracer
    _check_program(tm, prepared, commands)
    return metrics, commands, notes


def _table(workload, seed: int, traced: bool, metrics: dict, units: dict,
           notes: dict, commands: list[dict], info: dict) -> list[str]:
    lines = [f"workload {workload.name} seed {seed} "
             f"({'traced' if traced else 'untraced'}, {len(commands)} commands)"]
    aliases = {"throughput_per_s": f"{workload.command}_"
                                   f"{'pairs' if workload.command == 'eval' else 'events'}_per_s"}
    for name, value in metrics.items():
        lines.append(f"  {aliases.get(name, name):44s} {value:16.6g} {units[name]}")
    for name, (value, unit) in notes.items():
        lines.append(f"  {name:44s} {value:16.6g} {unit}")
    failed = sum(1 for c in commands if c["problems"])
    lines.append(f"  {'fail_rate':44s} {failed / len(commands):16.6g} "
                 f"({failed}/{len(commands)} commands)")
    walls = ", ".join(f"{c['wall_ns'] / 1e9:.3f}" for c in commands)
    lines.append(f"  command wall seconds: {walls}")
    for i, cmd in enumerate(commands):
        for problem in cmd["problems"]:
            lines.append(f"  FAILED command {i}: {problem}")
    blas = info["blas"]
    lines.append(f"machine: nproc={info['nproc']} cpu={info['cpu']!r} "
                 f"python={info['python']} numpy={info['numpy']} "
                 f"scipy={info['scipy']} blas={blas['library']} {blas['version']} "
                 f"threads={blas['threads']} commit={info['commit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tm = import_program()

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    base = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    if args.trace:
        metrics, commands, notes = trace(tm, workload, args.seed, args.seconds, base)
        units = {m["name"]: m["unit"] for m in layers.metric_list()}
    else:
        metrics, commands, notes = measure(tm, workload, args.seed, args.seconds, base)
        units = END_TO_END
    failed = sum(1 for c in commands if c["problems"])
    info = machine.describe(ROOT)
    result = {
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(base / "result.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                       seconds=args.seconds, notes=notes, machine=info, commands=commands),
                  fh, indent=2)
    for line in _table(workload, args.seed, bool(args.trace), metrics, units,
                       notes, commands, info):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
