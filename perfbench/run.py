"""fieldalign benchmark: alignment speed and outcome on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim2d|sim3d|molecules --seed N \
        --seconds S --trace 0|1

With --trace 0 the run repeats workload units for S seconds and reports
the end-to-end metrics (wall_s, sweeps_per_s, setup_s, peak_rss_mb). With
--trace 1 it runs units in pairs, untraced then traced on the same seed,
and reports the per-layer metrics plus the tracing overhead. The last
line of standard output is one JSON object; the full result and the spans
of a traced run are written under .perfbench_work/. The exit code is 1
when an output check fails and 2 when the sources are missing.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread per process, inherited by every child, so two
# align-all workers cannot oversubscribe two cores
THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_DIR = WORK / "setup-probe"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("sim2d", "sim3d", "molecules")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_sources() -> bool:
    if not (SRC / "fieldalign" / "__init__.py").is_file():
        print(f"perfbench: no fieldalign sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    return True


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_SETTINGS},
        "src_lines": {
            p.name: p.read_text().count("\n") for p in sorted((SRC / "fieldalign").glob("*.py"))
        },
    }


def setup_probe(args) -> int:
    """Import and generate the first unit's inputs, then exit: the parent
    times this process from spawn to exit as the set-up time."""
    from workloads import WORKLOADS

    WORKLOADS[args.workload].make_inputs(args.seed, 0, SETUP_DIR)
    return 0


def measure_setup(args) -> list[float]:
    from workloads import run_child

    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        # inputs are written afresh, as on a first run: overwriting files
        # can cost far more than creating them on some file systems
        shutil.rmtree(SETUP_DIR, ignore_errors=True)
        t0 = time.perf_counter()
        code, stderr = run_child(cmd)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {stderr.strip()}")
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def attempt(workload, seed: int, index: int, work_dir: Path, in_process: bool):
    """One unit; a unit that raises counts as failing all its operations."""
    from workloads import UnitResult

    try:
        return workload.run_unit(seed, index, work_dir, in_process)
    except Exception as exc:  # reported as failed operations, not a crash
        traceback.print_exc()
        res = UnitResult(wall_s=math.nan, sweeps=0, attempted=workload.operations)
        res.fail(f"unit {index} raised {exc!r}", res.attempted)
        return res


def run_units(workload, args, work_dir: Path, tracer):
    """Units until the time is up (at least one). With a tracer each seed
    runs untraced and then traced, both in-process."""
    from layers import instrument

    untraced, traced = [], []
    started = time.perf_counter()
    index = 0
    while True:
        untraced.append(attempt(workload, args.seed, index, work_dir, tracer is not None))
        if tracer is not None:
            instrument(tracer)
            try:
                traced.append(attempt(workload, args.seed, index, work_dir, True))
            finally:
                tracer.unpatch()
        index += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / index > args.seconds:
            return untraced, traced


def repeat_checks(workload, args, work_dir: Path, untraced, traced) -> tuple[int, list[str]]:
    """Same-seed repeats must reproduce the (success, RMSD) outcomes: each
    traced unit its untraced twin, or else a second run of unit 0."""
    if not workload.repeatable:
        return 0, []
    pairs = list(zip(untraced, traced))
    if not pairs:
        pairs = [(untraced[0], attempt(workload, args.seed, 0, work_dir, False))]
    problems = [
        f"same-seed repeat differs: {a.fingerprint} vs {b.fingerprint}"
        for a, b in pairs
        if a.fingerprint != b.fingerprint
    ]
    return len(pairs), problems


def end_to_end_metrics(good, setup_times) -> dict:
    walls = [u.wall_s for u in good]
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "sweeps_per_s": {"value": sum(u.sweeps for u in good) / sum(walls), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def per_layer_metrics(tracer, pairs) -> dict:
    from layers import layer_metrics, metric_table

    overhead = statistics.median(t.wall_s / u.wall_s - 1.0 for u, t in pairs)
    values = layer_metrics(tracer, len(pairs), overhead)
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _span) in metric_table().items()
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_sources():
        return 2
    if args.setup_probe:
        return setup_probe(args)

    from tracer import Tracer
    from workloads import WORKLOADS

    setup_times = measure_setup(args)
    workload = WORKLOADS[args.workload]
    work_dir = WORK / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    untraced, traced = run_units(workload, args, work_dir, tracer)
    units = untraced + traced
    problems = [p for u in units for p in u.problems]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    repeats, repeat_problems = repeat_checks(workload, args, work_dir, untraced, traced)
    problems += repeat_problems
    attempted += repeats
    failed += len(repeat_problems)

    good = [u for u in untraced if not u.problems]
    chains = sum(u.chains for u in good)
    scored = sum(u.scored for u in good)
    summary = {
        "units": len(untraced),
        "wall_s_max": max((u.wall_s for u in good), default=None),
        "success_rate": sum(u.successes for u in good) / scored if scored else None,
        "exhausted_share": sum(u.exhausted for u in good) / chains if chains else None,
        "failed_share": failed / attempted,
        "setup_s_samples": setup_times,
        "unit_details": [
            {"wall_s": u.wall_s, "sweeps": u.sweeps, "chains": u.chains, "step_s": u.step_s}
            for u in untraced
        ],
        "problems": problems,
    }
    if tracer is not None:
        pairs = [(u, t) for u, t in zip(untraced, traced) if not (u.problems or t.problems)]
        metrics = per_layer_metrics(tracer, pairs) if pairs else {}
        summary["absent"] = sorted(tracer.absent)
        summary["traced_units"] = len(pairs)
        tracer.save(WORK / f"spans-{args.workload}.npz")
    else:
        metrics = end_to_end_metrics(good, setup_times) if good else {}
    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "summary": summary, **result}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    print("summary: " + json.dumps(summary, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for name in ("success_rate", "failed_share", "exhausted_share"):
        if summary[name] is not None:
            print(f"{args.workload} {name} = {summary[name]:.6g} share (not gated)")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
