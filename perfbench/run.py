"""Benchmark of the sigvol CLI: three workloads, exact output checks.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root.  Each workload runs in a fresh worker
process (`worker.py`), which drives `sigvol.cli.run` in-process.  With
`--trace 0` the last line of stdout is one JSON object with the end-to-end
metrics (wall_s, setup_s, peak_rss_mb); with `--trace 1` it holds the
per-layer metrics of a traced run instead, and the spans are written under
`perfbench/out/`.  `--workload all` prints one line per workload first.
See README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("invariants", "kernels", "paths")
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "B" if name.endswith("_bytes") else "count"


def worker_timeout(seconds: int) -> int:
    """A run measures --seconds and may overshoot by half a round; set-up,
    probes and checks add some 20 s.  At --seconds 30 this is 170 s."""
    return 110 + 2 * seconds


def run_workload(args, workload: str) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--spawned-at", repr(time.monotonic())]
    timeout = worker_timeout(args.seconds)
    # its own process group, so that a timeout also stops a set-up probe it has started
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{workload}: worker timed out after {timeout} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: worker exited with code {proc.returncode}")
    run = json.loads(lines[-1])
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in run["per_layer"].items()}
    else:
        metrics = {name: {"value": run[name], "unit": unit} for name, unit in UNITS.items()}
    return {"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (Path.cwd() / "src" / "sigvol" / "__init__.py").is_file():
        print("run from the root of a sigvol checkout: src/sigvol is missing", file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(run_workload(args, args.workload)))
        return 0
    results = {}
    for workload in WORKLOADS:
        results[workload] = result = run_workload(args, workload)
        shown = "  ".join(f"{name}={m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items())
        print(f"{workload}: attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']}  {shown}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
