"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign-wide --seed 1 --seconds 16 --trace 0

``--trace 0`` repeats the timed section until the repetitions add up to
``--seconds``, and at least twice, and reports the end-to-end metrics
(``setup_s``, ``wall_s``, ``lane_steps_per_s``, ``peak_rss_mb``);
``wall_s`` is the median repetition.  ``--trace 1`` reports the
per-layer metrics of one traced repetition (see ``tracing.py``) plus the
tracing overhead: after an uncounted warm-up, traced and untraced
repetitions alternate, and the overhead is the median over pairs of a
traced repetition's time minus that of the untraced one after it.

Every run first computes the serial executor's output for its seed in a
child process (the oracle) and then checks each measured run's output,
unit by unit, against it.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (output units that
raised or differ from the oracle; ``failed / attempted`` is the error
rate) and ``metrics``.  An earlier line, prefixed ``record``, carries
the host facts and the raw per-run samples.

The exit code is 0 on a correct run, 1 on a failed check and 2 when the
program's sources are missing from the checkout.
"""

from __future__ import annotations

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (loads no program module until set-up)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Set-up is measured in this many fresh child processes, half before and
#: half after the timed repetitions so that the samples see more than one
#: phase of the host's load; ``setup_s`` is the median of these samples
#: and this process's own.
SETUP_CHILDREN = 8

#: Untraced runs repeat the timed section at least this often, so that
#: ``wall_s`` is always the median of two or more repetitions.
MIN_REPETITIONS = 2

#: Program settings the benchmark pins, so no caller environment leaks
#: into a run: no ambient cache, worker count or lane cap.
_UNSET_VARS = ("REPRO_JOBS", "REPRO_BATCH_LANES", "REPRO_CACHE_DIR")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "lane_steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the self-test"
    )
    parser.add_argument(
        "--role",
        choices=("main", "setup", "oracle"),
        default="main",
        help=argparse.SUPPRESS,
    )
    parser.add_argument("--out", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """One BLAS thread and no ambient program settings; before NumPy loads."""
    from host import BLAS_THREAD_VARS

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    for var in _UNSET_VARS:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))


def child(args: argparse.Namespace, role: str, out: str) -> None:
    """Run this script in another role and wait for it."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--trace", str(args.trace),
        "--role", role,
        "--out", out,
    ]
    if args.smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True, timeout=170)


def oracle_file(args: argparse.Namespace, workdir: str) -> Path:
    """The serial oracle's output for this workload and seed.

    Computed once per seed and source tree, in a child process, and kept
    under ``.bench_out/oracle`` so later runs of the same seed reuse it.
    """
    from host import source_digest

    key = hashlib.sha256(
        json.dumps(
            [args.workload, args.seed, args.smoke, source_digest(SRC), source_digest(HERE)]
        ).encode()
    ).hexdigest()[:20]
    path = OUT / "oracle" / f"{args.workload}-{args.seed}-{key}.json"
    if not path.exists():
        fresh = os.path.join(workdir, "oracle.json")
        child(args, "oracle", fresh)
        path.parent.mkdir(parents=True, exist_ok=True)
        shutil.move(fresh, path)
    return path


def compare(output, oracle) -> int:
    """Output units that differ from the oracle's (missing ones included)."""
    differ = sum(a != b for a, b in zip(output.units, oracle.units))
    return differ + abs(len(output.units) - len(oracle.units))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        from tracing import import_layers

        import_layers()
    ctx = workload.setup(args.seed, args.smoke)
    setup_here = perf_counter() - PROCESS_START

    if args.role == "setup":
        Path(args.out).write_text(json.dumps({"setup_s": setup_here}))
        return 0
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.role == "oracle":
            output = workload.run(ctx, "serial", workdir)
            Path(args.out).write_text(json.dumps(output.as_dict()))
            return 0
        return measure(args, workload, ctx, setup_here, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, ctx, setup_here: float, workdir: str) -> int:
    from host import host_facts

    setup_samples = [setup_here]

    def sample_setup(n: int) -> None:
        for _ in range(n):
            path = os.path.join(workdir, f"setup-{len(setup_samples)}.json")
            child(args, "setup", path)
            setup_samples.append(json.loads(Path(path).read_text())["setup_s"])

    oracle = workloads.Output.from_dict(json.loads(oracle_file(args, workdir).read_text()))

    outputs = []
    attempted = failed = 0
    errors = []

    def attempt(tracer=None):
        """One checked repetition; its output, or None if it raised."""
        nonlocal attempted, failed
        attempted += len(oracle.units)
        try:
            output = workload.run(ctx, "batch", workdir, tracer=tracer)
        except Exception:  # a failing run is a measured outcome, not a crash
            errors.append(traceback.format_exc())
            failed += len(oracle.units)
            return None
        outputs.append(output)
        failed += compare(output, oracle)
        return output

    metrics = {}
    if args.trace:
        from tracing import Tracer, layer_metrics, metric_unit

        # An uncounted warm-up, then traced and untraced repetitions in
        # turn; the first traced repetition's spans give the metrics.
        tracers = []
        untraced, traced = [], []
        if attempt():
            while not traced or sum(untraced) + sum(traced) < args.seconds:
                tracers.append(Tracer())
                t, u = attempt(tracers[-1]), attempt()
                if t is None or u is None:
                    break
                traced.append(t.wall_s)
                untraced.append(u.wall_s)
        if traced and not errors:
            tracers[0].save(str(OUT / f"trace-{args.workload}.npz"))
            values = layer_metrics(tracers[0].names, tracers[0].columns())
            # Each traced repetition is paired with the untraced one right
            # after it, so that the two see the same phase of host load.
            values["trace.overhead_s"] = statistics.median(
                t - u for t, u in zip(traced, untraced)
            )
            values["trace.spans"] = len(tracers[0])
            metrics = {k: {"value": v, "unit": metric_unit(k)} for k, v in values.items()}
    else:
        sample_setup(SETUP_CHILDREN // 2)
        timed = 0.0
        while len(outputs) < MIN_REPETITIONS or timed < args.seconds:
            if attempt() is None:
                break
            timed += outputs[-1].wall_s
        sample_setup(SETUP_CHILDREN - SETUP_CHILDREN // 2)
        if outputs and not errors:
            wall = statistics.median(o.wall_s for o in outputs)
            values = {
                "setup_s": statistics.median(setup_samples),
                "wall_s": wall,
                "lane_steps_per_s": outputs[0].lane_steps / wall,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    correct = (
        not errors
        and failed == 0
        and bool(metrics)
        and all(o.digest == oracle.digest for o in outputs)
        and all(o.lane_steps == oracle.lane_steps for o in outputs)
    )
    for error in errors:
        print(error, file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host_facts(ROOT),
        "oracle_digest": oracle.digest,
        "serial_wall_s": oracle.wall_s,
        "walls": [o.wall_s for o in outputs],
        "digests": [o.digest for o in outputs],
        "lane_steps": oracle.lane_steps,
        "setup_samples": setup_samples,
        "error_rate": failed / attempted,
    }
    print("record " + json.dumps(record, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
