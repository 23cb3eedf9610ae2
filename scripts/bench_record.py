"""Assemble a committed benchmark record from two checkouts' perfbench runs.

Run ``perfbench/run.py`` in a checkout of the parent commit and in one of the
change, on the same workloads and seeds (alternating which side runs first),
then, from the root of the change's checkout:

    python3 scripts/bench_record.py BENCH_eval.json --parent ../parent \\
        --change . --parent-commit df410b6 --workloads eval-wide --traced-seed 1

For each workload, every seed with an untraced (``--trace 0``) result on both
sides becomes one pair. The record holds the machine, each pair's end-to-end
values, each side's median and quartiles, how many pairs the change won, and
the per-layer metrics of both sides' traced run of ``--traced-seed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

# end-to-end metrics and whether a higher value is better
END_TO_END = {"throughput_per_s": True, "peak_rss_mb": False, "setup_s": False}


def _results(root: Path, workload: str, trace: int) -> dict[int, dict]:
    out = {}
    for path in sorted((root / ".perfbench_out").glob(f"{workload}-seed*-trace{trace}")):
        with open(path / "result.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        out[doc["seed"]] = doc
    return out


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def workload_record(parent: Path, change: Path, workload: str, traced_seed: int) -> dict:
    before, after = _results(parent, workload, 0), _results(change, workload, 0)
    seeds = sorted(set(before) & set(after))
    if len(seeds) < 2:
        raise SystemExit(f"{workload}: need untraced runs of at least 2 seeds on both sides")
    record = {"seeds": seeds, "seconds": after[seeds[0]]["seconds"],
              "failed_commands": {"parent": sum(before[s]["failed"] for s in seeds),
                                  "change": sum(after[s]["failed"] for s in seeds)},
              "end_to_end": {}}
    for name, higher in END_TO_END.items():
        p = [before[s]["metrics"][name]["value"] for s in seeds]
        c = [after[s]["metrics"][name]["value"] for s in seeds]
        record["end_to_end"][name] = {
            "unit": after[seeds[0]]["metrics"][name]["unit"],
            "better": "higher" if higher else "lower",
            "pairs": [{"seed": s, "parent": a, "change": b} for s, a, b in zip(seeds, p, c)],
            "parent": _spread(p), "change": _spread(c),
            "change_wins": sum((b > a) if higher else (b < a) for a, b in zip(p, c)),
        }
    traced = {}
    for side, root in (("parent", parent), ("change", change)):
        doc = _results(root, workload, 1).get(traced_seed)
        if doc is not None:
            traced[side] = {name: m["value"] for name, m in doc["metrics"].items()}
    record["traced"] = {"seed": traced_seed, **traced}
    return record, after[seeds[0]]["machine"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--traced-seed", type=int, default=1)
    args = parser.parse_args(argv)
    doc = {"parent_commit": args.parent_commit, "workloads": {}}
    for workload in args.workloads.split(","):
        record, machine = workload_record(args.parent, args.change, workload,
                                          args.traced_seed)
        doc["workloads"][workload] = record
        doc["machine"] = {k: v for k, v in machine.items() if k != "commit"}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
