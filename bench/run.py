"""Run one workload of the chronotax benchmark and print its metrics.

Run from the repository root; the library is imported from ``src/``:

    python3 bench/run.py --workload verify-scheduled --seed 1 --seconds 36 --trace 0

The run repeats one pass of the workload body over inputs made from the seed
until ``--seconds`` have been spent, checks every operation against its
reference, and prints the metrics.  With ``--trace 0`` these are the
end-to-end metrics, measured untraced; the fresh processes timed for
``setup_s`` are started between passes, spread over the run, so that they meet
the same host conditions as the passes.  With ``--trace 1`` untraced and
traced passes alternate, and the per-layer metrics come from the traced ones;
the spans are written to ``bench/out/trace-<workload>.npz``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it give every metric by name and
unit, ``fail_frac``, the pass samples and a record of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "CHRONOTAX_THREADS")
#: fresh processes timed for ``setup_s``; the median is reported
SETUP_REPEATS = 7
DEFAULT_SECONDS = 36


class Refused(Exception):
    """The run cannot be made here; nothing is measured or printed."""


def thread_limits(nproc: int) -> None:
    """Refuse any thread variable that allows more threads than ``nproc``."""
    for var in THREAD_VARS:
        raw = os.environ.get(var)
        if raw is None or raw.strip() == "":
            continue
        try:
            # OMP_NUM_THREADS may list one count per nesting level
            most = max(int(part) for part in raw.split(","))
        except ValueError:
            raise Refused(f"{var}={raw!r} is not a thread count") from None
        if most > nproc:
            raise Refused(f"{var}={raw} allows more threads than the {nproc} CPUs here")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def import_library():
    """Import ``chronotax`` from this checkout's ``src/`` and the workload module."""
    if not (SRC / "chronotax" / "__init__.py").is_file():
        raise Refused(f"no chronotax package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    return workloads


def setup_probe(workload: str, seed: int) -> None:
    """Child side of ``setup_s``: import the library and build the inputs."""
    start = time.perf_counter()
    workloads = import_library()
    workloads.WORKLOADS[workload].build(seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(workload: str, seed: int) -> float:
    """Time one set-up in a fresh process; ``subprocess.run`` waits for it to end."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        raise Refused(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


@dataclass
class Pass:
    """Wall and CPU time, per-operation results and check flags of one pass."""

    wall: float
    cpu: float
    results: list
    ok: list[bool]


def run_pass(workload, inputs, operations, tracer=None) -> Pass:
    results = []
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for label, op in operations:
        if tracer is not None:
            tracer.operation += 1
        try:
            results.append(op())
        except Exception:  # a failed operation is counted, and the run goes on
            print(f"operation {label!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
            results.append(None)
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    ok = [bool(flag) for flag in workload.check(inputs, results)]
    return Pass(wall, cpu, results, ok)


def host_speed_ms(chunks: int = 15) -> dict[str, float]:
    """Min and median milliseconds of a fixed pure-Python loop.

    The host's speed drifts by up to 2x over minutes here, in CPU time as
    much as in wall time, and the load average does not show it; this probe,
    taken before and after a run, does.
    """
    times = []
    for _ in range(chunks):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return {"min": min(times), "median": statistics.median(times)}


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith((".s", ".self_s")):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        nproc = len(os.sched_getaffinity(0))
        thread_limits(nproc)
        # one thread: BLAS pools are pinned before numpy is first imported
        for var in THREAD_VARS[:3]:
            os.environ.setdefault(var, "1")
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        workloads = import_library()
        if args.workload not in workloads.WORKLOADS:
            raise Refused(f"unknown workload {args.workload!r}; "
                          f"choose from {sorted(workloads.WORKLOADS)}")
        seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    speed_before = host_speed_ms()

    import numpy
    import scipy

    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(seed)
    operations = workload.operations(inputs)
    tracer = Tracer() if args.trace else None

    untraced: list[Pass] = []
    traced: list[Pass] = []
    layer_samples: list[dict] = []
    setup: list[float] = []
    setup_wanted = 0 if args.trace else SETUP_REPEATS
    longest = 0.0
    start = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - start
            if len(setup) < setup_wanted and elapsed >= len(setup) * args.seconds / setup_wanted:
                setup.append(measure_setup(args.workload, seed))
            round_start = time.perf_counter()
            untraced.append(run_pass(workload, inputs, operations))
            if tracer is not None:
                first = tracer.begin_pass()
                with tracer.installed():
                    traced.append(run_pass(workload, inputs, operations, tracer))
                layer_samples.append(tracer.summary(first))
            now = time.perf_counter()
            # stop before a round as long as the longest so far would overrun
            longest = max(longest, now - round_start)
            if now - start + longest > args.seconds:
                break
        while len(setup) < setup_wanted:
            setup.append(measure_setup(args.workload, seed))
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2

    passes = untraced + traced
    reference = untraced[0].results
    attempted = sum(len(p.ok) for p in passes)
    failed = 0
    mismatched = 0
    for p in passes:
        for ok, got, want in zip(p.ok, p.results, reference):
            same = got == want
            mismatched += not same
            failed += not (ok and same)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    load_after = os.getloadavg()
    speed_after = host_speed_ms()

    walls = [p.wall for p in untraced]
    if tracer is None:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p.cpu for p in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    else:
        values = {key: statistics.median(s[key] for s in layer_samples)
                  for key in layer_samples[0]}
        values["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced) / statistics.median(walls) - 1.0)
        units = {key: unit_of(key) for key in values}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"trace-{args.workload}.npz")

    detail = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "operations_per_pass": len(operations),
        "wall_s_samples": walls,
        "wall_s_tail": tail(walls),
        "setup_s_samples": setup,
        "fail_frac": failed / attempted,
        "results_unlike_first_pass": mismatched,
        "machine": {
            "nproc": nproc,
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "loadavg_before": list(load_before),
            "loadavg_after": list(load_after),
            "host_loop_ms_before": speed_before,
            "host_loop_ms_after": speed_after,
        },
    }
    for key, value in values.items():
        print(f"{args.workload} {key} = {value:.6g} {units[key]}")
    print(f"{args.workload} fail_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
