"""Run every workload once, print each one's metrics, optionally save them.

    python3 perfbench/suite.py                    # untraced, seed 1, 25 s
    python3 perfbench/suite.py --trace --write perfbench/baseline/NAME.json

Each workload runs in its own process (``run.py``), so memory figures do not
mix.  With ``--trace`` every workload also gets a traced run.  ``--write``
saves all results with the git SHA, Python version, CPU count and seed, the
form of the committed baselines.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run every perfbench workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", action="store_true", help="add a traced run per workload")
    parser.add_argument("--write", metavar="FILE", help="save the result set as JSON")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    results: dict[str, dict] = {}
    ok = True
    for workload in workloads:
        for trace in ((0, 1) if args.trace else (0,)):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                ok = False
            if lines:
                # The text lines keep what the JSON leaves out: sample counts,
                # error_rate and the host probe.
                results.setdefault(workload, {})[f"trace{trace}"] = {
                    **json.loads(lines[-1]), "log": lines[:-1]}

    if args.write:
        record = {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "seed": args.seed,
            "seconds": args.seconds,
            "date_utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "results": results,
        }
        with open(args.write, "w", encoding="utf-8") as out:
            json.dump(record, out, indent=2, sort_keys=True)
            out.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
