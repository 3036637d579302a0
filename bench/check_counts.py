"""Self-check of the benchmark: names match BENCHMARK.json and work counts repeat.

Run from the repository root:

    python3 bench/check_counts.py

Each workload runs once untraced and twice traced, each run in its own
process and with ``--seconds 1`` (one pass of each kind).  The check fails
unless every run is correct, the metric names equal the ``end_to_end`` and
``per_layer`` lists of ``BENCHMARK.json``, the workload names equal its
``workloads``, and every ``*.calls``, ``*.steps``, ``*.rows`` and ``*.events``
count is the same in both traced runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
COUNT_SUFFIXES = (".calls", ".steps", ".rows", ".events")


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(RUN.parent))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(WORKLOADS):
        problems.append(f"workloads {sorted(WORKLOADS)} != declared {sorted(declared)}")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}

    for workload in declared:
        plain = run(workload, 0)
        first, second = run(workload, 1), run(workload, 1)
        for label, result in (("untraced", plain), ("traced", first), ("traced", second)):
            if not result["correct"]:
                problems.append(f"{workload}: {label} run is not correct")
        if set(plain["metrics"]) != end_to_end:
            problems.append(f"{workload}: untraced metrics differ from end_to_end: "
                            f"{sorted(set(plain['metrics']) ^ end_to_end)}")
        if set(first["metrics"]) != per_layer:
            problems.append(f"{workload}: traced metrics differ from per_layer: "
                            f"{sorted(set(first['metrics']) ^ per_layer)}")
        counts = sorted(k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES))
        for key in counts:
            a = first["metrics"][key]["value"]
            b = second["metrics"].get(key, {}).get("value")
            if a != b:
                problems.append(f"{workload}: {key} = {a} then {b}")
        print(f"{workload}: {len(counts)} counts compared, "
              f"{sum(first['metrics'][k]['value'] for k in counts if k.endswith('.calls'))} "
              f"traced calls per pass")

    for problem in problems:
        print(f"FAIL {problem}")
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
