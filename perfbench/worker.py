"""One measured run of one workload, in its own process.

Run by `run.py`; prints one JSON line.  The process imports sigvol from
`src/` of the current directory, builds the workload's argv lists from the
seed, then runs whole rounds of them through `sigvol.cli.run`: the whole
number of rounds nearest to `--seconds` of command time, at least two, so
that no figure rests on a single round.
Outputs are checked after the timed rounds, so checking costs neither time
nor peak memory in the figures.

    setup_s      process start (`--spawned-at`, a CLOCK_MONOTONIC reading
                 taken by the parent) to the first timed command; median of
                 this process and of SETUP_PROBES set-up-only copies of it,
                 started between commands, one per even step of command time
                 (several at once where a command spans several steps)
    wall_s       the summed command times of a round, mean of the rounds
                 (the machine's speed drifts over seconds, so the whole run
                 is averaged rather than a median of a few rounds taken)
    peak_rss_mb  peak resident memory at the end of the first round, so that
                 it does not depend on how many rounds fit

A traced run (`--trace 1`) starts no probes and writes its spans to `out/`
next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import workloads
from spans import COMMAND, Tracer, layer_totals, mean_metrics, per_layer_metrics

OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 16  # set-up-only processes spread over a run
MIN_ROUNDS = 2
PROBE_TIMEOUT_S = 60


def import_cli(root: Path):
    """sigvol.cli from the checkout at `root`, never from an installed copy."""
    src = root / "src"
    if not (src / "sigvol" / "__init__.py").is_file():
        raise SystemExit(f"no sigvol sources under {src}")
    sys.path.insert(0, str(src))
    import sigvol.cli

    if Path(sigvol.cli.__file__).resolve().parent != (src / "sigvol").resolve():
        raise SystemExit(f"sigvol was imported from {sigvol.cli.__file__}, not from {src}")
    return sigvol.cli


def run_command(cli, argv: list[str], tracer: Tracer | None) -> tuple[int, str]:
    buffer = io.StringIO()
    span = tracer.open(COMMAND) if tracer else None
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.run(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed command, not a crashed benchmark
        print(f"{argv[0]}: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    text = buffer.getvalue()
    if tracer:
        tracer.close(span, {"stdout_bytes": len(text.encode())})
    return code, text


def check_output(command: workloads.Command, code: int, text: str) -> str | None:
    """None when the command succeeded and its output is right, else why not.

    The output is checked whatever the exit code: `check-element` exits 1
    with a full report when an element fails a check.
    """
    try:
        command.check(json.loads(text))
        verdict = None
    except (workloads.CheckError, ValueError, KeyError, TypeError) as exc:
        verdict = f"{type(exc).__name__}: {exc}"
    if code != 0:
        return f"exit code {code}" + (f", {verdict}" if verdict else "")
    return verdict


def judge(commands: list[workloads.Command], results: list[list[tuple[int, str]]]) -> tuple[bool, int]:
    """(correct, failed) over rounds of results: any failed command makes the run incorrect."""
    failed = 0
    verdicts: dict[tuple[int, int, str], str | None] = {}
    for outputs in results:
        for i, (command, (code, text)) in enumerate(zip(commands, outputs)):
            key = (i, code, text)
            if key not in verdicts:
                verdicts[key] = check_output(command, code, text)
                if verdicts[key]:
                    print(f"FAILED {' '.join(command.argv)}: {verdicts[key]}", file=sys.stderr)
            failed += bool(verdicts[key])
    return failed == 0, failed


def setup_probe(args) -> float:
    """setup_s of a fresh copy of this process that stops before the first command."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--spawned-at", repr(time.monotonic()), "--setup-only"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    cli = import_cli(root)
    commands = workloads.BUILDERS[args.workload](args.seed, root / "src" / "sigvol" / "fixtures")
    setups = [time.monotonic() - args.spawned_at]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    probe_step = args.seconds / SETUP_PROBES
    next_probe = 0.0
    measured = 0.0  # command time so far
    round_walls, round_starts, results = [], [], []
    while True:
        round_starts.append(len(tracer.spans) if tracer else 0)
        outputs, wall = [], 0.0
        for command in commands:
            while not tracer and measured + wall >= next_probe and len(setups) <= SETUP_PROBES:
                setups.append(setup_probe(args))
                next_probe += probe_step
            first = time.perf_counter()
            outputs.append(run_command(cli, command.argv, tracer))
            wall += time.perf_counter() - first
        results.append(outputs)
        round_walls.append(wall)
        measured += wall
        if len(round_walls) == 1:  # later rounds only add allocator fragmentation
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(round_walls) >= MIN_ROUNDS and measured + measured / len(round_walls) / 2 > args.seconds:
            break  # the nearest whole number of rounds to --seconds

    correct, failed = judge(commands, results)
    result = {
        "correct": correct,
        "attempted": len(commands) * len(results),
        "failed": failed,
        "rounds": len(results),
        "setup_s": median(setups),
        "wall_s": sum(round_walls) / len(round_walls),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        tracer.uninstall()
        bounds = round_starts + [len(tracer.spans)]
        rounds = [per_layer_metrics(layer_totals(tracer.spans, a, b)) for a, b in zip(bounds, bounds[1:])]
        result["per_layer"] = mean_metrics(rounds)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "round_starts": round_starts,
                     "first_round_layers": layer_totals(tracer.spans, bounds[0], bounds[1])})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
