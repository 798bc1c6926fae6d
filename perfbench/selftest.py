"""Self-test of the output checkers: right outputs pass, wrong ones are refused.

    python3 perfbench/selftest.py [--seed N]

Run it from the repository root.  It runs every command of every workload
once through `sigvol.cli.run`, requires each checker to accept the real
output, then feeds each checker deliberately wrong copies (a wrong image
dimension, a kernel vector that does not vanish, a volume off by one, ...)
and requires it to refuse every one, and the run to read incorrect.
`check-element`'s wrong report is given with exit code 1, as the program
exits then, and with 0.  It also cross-checks the two
signature oracles against each other.  Exits 1 on any surprise.
"""

from __future__ import annotations

import argparse
import copy
import json
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import oracle
import workloads
from worker import check_output, import_cli, judge, run_command


def _plus_one(text: str) -> str:
    return str(Fraction(text) + 1)


def _duplicate_first(out: dict) -> dict:
    return {**out, "dim_raw": out["dim_raw"] + 1, "basis": out["basis"] + out["basis"][:1]}


def _drop_last(out: dict) -> dict:
    return {**out, "dim_raw": out["dim_raw"] - 1, "basis": out["basis"][:-1]}


def _append_to_basis(term: str):
    def mutate(out: dict) -> dict:
        return {**out, "basis": [f"{x} + {term}" for x in out["basis"]]}
    return mutate


def mutations(argv: list[str]) -> list[tuple[str, object]]:
    """(label, function changing a copy of the parsed output) for one command."""
    verb = argv[0]
    k = argv[argv.index("--k") + 1] if "--k" in argv else None
    found: list[tuple[str, object]] = []
    if verb == "inv-space":
        found.append(("image dimension + 1", lambda out: {**out, "dim_image": out["dim_image"] + 1}))
        if k == "6":
            found.append(("first vector duplicated", _duplicate_first))
        if k == "3":
            found.append(("sign flipped in the volume element",
                          lambda out: {**out, "basis": ["123 + 132 - 213 + 231 + 312 - 321"]}))
        if k in ("5", "6"):
            found.append(("non-invariant word added to every basis element", _append_to_basis("1" * int(k))))
    elif verb == "loopclosure-space":
        if k == "4":
            found.append(("word 1111 added to the basis",
                          lambda out: {**out, "dim_raw": 2, "basis": out["basis"] + ["1111"]}))
            found.append(("empty basis", lambda out: {**out, "dim_raw": 0, "basis": []}))
        else:
            found.append(("word 11111 claimed as invariant", lambda out: {**out, "dim_raw": 1, "basis": ["11111"]}))
    elif verb == "kernel-space":
        found.append(("nonvanishing word added to every kernel vector", _append_to_basis("1" * int(k))))
        found.append(("empty basis", lambda out: {**out, "dim_raw": 0, "basis": []}))
        found.append(("first vector duplicated", _duplicate_first))
        found.append(("last vector dropped", _drop_last))
        if k == "6":
            found.append(("kernel dimension 2",
                          lambda out: {**out, "dim_raw": 2, "basis": out["basis"] + ["111111"]}))
    elif verb == "check-element":
        def one_false(out: dict) -> dict:
            first = sorted(out["checks"])[0]
            out["checks"][first] = {"kernel": False}
            return {**out, "pass": False}
        found.append(("one element reported outside the kernel", one_false))
    elif verb == "pair":
        found.append(("w1 value + 1", lambda out: {"values": {**out["values"], "w1": _plus_one(out["values"]["w1"])}}))
    elif verb == "signature":
        def coefficient_plus_one(out: dict) -> dict:
            out["coefficients"]["12"] = _plus_one(out["coefficients"].get("12", "0"))
            return out
        found.append(("coefficient of 12 + 1", coefficient_plus_one))
    elif verb == "volume":
        found.append(("both volumes + 1", lambda out: {k2: _plus_one(v) for k2, v in out.items()}))
        found.append(("signed volume + 1", lambda out: {**out, "signed_volume": _plus_one(out["signed_volume"])}))
    elif verb == "stabilizer":
        found.append(("order + 1", lambda out: {**out, "order": out["order"] + 1}))
    return found


def oracle_cross_check(seed: int) -> bool:
    rng = random.Random(seed)
    for d, n in ((2, 5), (3, 4)):
        points = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)) for _ in range(n)]
        incs = oracle.increments(points)
        sig = oracle.signature(incs, 4)
        words = [w for k in range(5) for w in product(range(1, d + 1), repeat=k)]
        if any(sig.get(w, 0) != oracle.word_coefficient(incs, w) for w in words):
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    root = Path.cwd()
    cli = import_cli(root)
    surprises = 0
    if not oracle_cross_check(args.seed):
        print("SURPRISE the Chen product and the word-wise Chen identity disagree")
        surprises += 1
    for workload in workloads.WORKLOADS:
        for command in workloads.BUILDERS[workload](args.seed, root / "src" / "sigvol" / "fixtures"):
            shown = " ".join(command.argv)[:72]
            code, text = run_command(cli, command.argv, None)
            verdict = check_output(command, code, text)
            if verdict:
                print(f"SURPRISE {workload}: {shown}: real output refused: {verdict}")
                surprises += 1
                continue
            for label, mutate in mutations(command.argv):
                wrong = json.dumps(mutate(copy.deepcopy(json.loads(text))))
                # check-element reports a failed check by exiting 1
                for code in (0, 1) if command.argv[0] == "check-element" else (0,):
                    verdict = check_output(command, code, wrong)
                    correct, failed = judge([command], [[(code, wrong)]])
                    if verdict is None or correct or failed != 1:
                        print(f"SURPRISE {workload}: {shown}: exit {code}, accepted with {label}")
                        surprises += 1
                    else:
                        print(f"refused  {workload}: {shown}: exit {code}, {label} -> {verdict}")
    print(f"{surprises} surprises")
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main())
