"""Run the benchmark over several seeds and report medians and spreads.

Usage, from the root of a checkout::

    python3 perfbench/prove.py --workload campaign-wide --seeds 1-10
    python3 perfbench/prove.py --seeds 1-10 --trace-seed 1 --append perfbench/trajectory.jsonl
    python3 perfbench/prove.py --seeds 11-20 --against perfbench/trajectory.jsonl

For each workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, ``(q3 - q1) / median``, beside the metric's bound from
``BENCHMARK.json``.  A metric is steady when its spread is under a third
of its bound.  ``--against`` compares each median with the last record
of the same workload in a trajectory file and flags a metric that is
worse by more than its bound.  ``--trace-seed`` adds one traced run for
the per-layer metrics; ``--append`` writes one record per workload, with
the host facts, to a trajectory file.  The exit code is 1 when a metric
is unsteady or worse than the record it is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, trace: int, seconds: int):
    """One run of ``run.py``: its record, its result and its duration."""
    t0 = perf_counter()
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    (record,) = [line for line in lines if line.startswith("record ")]
    record = json.loads(record[len("record "):])
    record["run_s"] = perf_counter() - t0
    return record, json.loads(lines[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--append", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    against = {}
    if args.against:
        for line in args.against.read_text().splitlines():
            entry = json.loads(line)
            against[entry["workload"]] = entry

    steady = True
    for workload in args.workload or names:
        samples = {m["name"]: [] for m in SPEC["end_to_end"]}
        records = []
        for seed in args.seeds:
            record, result = run(workload, seed, 0, args.seconds)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output {result}")
            records.append(record)
            for name in samples:
                samples[name].append(result["metrics"][name]["value"])
            values = ", ".join(f"{k}={v[-1]:.4g}" for k, v in samples.items())
            walls = [round(w, 3) for w in record["walls"]]
            print(
                f"{workload} seed {seed}: {values}; repetitions {walls}; "
                f"run took {record['run_s']:.1f} s",
                flush=True,
            )
        stats = {name: summary(values) for name, values in samples.items()}
        for metric in SPEC["end_to_end"]:
            s = stats[metric["name"]]
            ok = s["spread"] < metric["bound"] / 3
            line = (
                f"{workload:14s} {metric['name']:17s} median {s['median']:.5g} "
                f"{metric['unit']}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
                f"spread {s['spread']:.2%} (bound {metric['bound']:.0%})"
                + ("" if ok else "  UNSTEADY")
            )
            if workload in against:
                before = against[workload]["end_to_end"][metric["name"]]["median"]
                worse = (s["median"] - before) / before
                if metric["better"] == "higher":
                    worse = -worse
                line += f"  worse by {worse:+.2%} than {before:.5g}"
                if worse > metric["bound"]:
                    ok = False
                    line += "  BEYOND BOUND"
            steady &= ok
            print(line)
        layers = None
        if args.trace_seed is not None:
            _, traced = run(workload, args.trace_seed, 1, args.seconds)
            layers = {k: m["value"] for k, m in traced["metrics"].items()}
        if args.append:
            entry = {
                "workload": workload,
                "seeds": args.seeds,
                "seconds": args.seconds,
                "host": records[0]["host"],
                "serial_wall_s": summary([r["serial_wall_s"] for r in records])["median"],
                "run_s": summary([r["run_s"] for r in records])["median"],
                "end_to_end": {
                    k: {key: s[key] for key in ("median", "q1", "q3", "spread", "values")}
                    for k, s in stats.items()
                },
                "per_layer": layers,
                "per_layer_seed": args.trace_seed,
            }
            with args.append.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
