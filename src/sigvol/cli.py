"""Batch command-line front end.

Every computation in the library is exposed as a subcommand with
machine-readable JSON output (default) or human-readable text.  Output is
byte-stable across runs; progress of long computations goes to stderr only.

Exit codes: 0 on success, 1 when a requested check fails, 2 on usage errors.
A usage error (bad arguments, unparseable or out-of-range input) prints one
line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import fixtures, verify
from .exactq import qq
from .freealg import (
    antipode,
    check_text_alphabet,
    element_to_text,
    lyndon_words,
    parse_element,
    parse_fixture_elements,
    shuffle,
    concat,
    volume_element,
)
from .invariants import (
    conjecture_evidence,
    dim_image,
    inv_d_space,
    invariant_space,
    is_in_kernel,
    is_invariant,
    kernel_space,
    loopclosure_membership,
    loopclosure_space,
    timerev_space,
)
from .posgeom import (
    GROUP_NAMES,
    PermGroup,
    gale_facets,
    moment_curve_instance,
    named_group,
    polytope_volume,
    signed_volume,
    stabilizer_bruteforce,
    stabilizer_structural,
)
from .sigpoly import (
    PLPath,
    path_pair,
    pl_signature,
    polynomial_to_text,
    polynomial_to_x_text,
    signature_polynomial,
)


class UsageError(Exception):
    """Bad command-line input; `run` reports it on one line and returns 2."""


def _checked(fn, *args):
    """fn(*args), with the ValueError it raises for bad input as a usage error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# lower bounds of the integer options, checked before any computation
_MINIMUM = {"d": 1, "n": 1, "k": 0, "maxdeg": 0, "segments": 1}


def _check_ranges(args) -> None:
    for name, low in _MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise UsageError(f"--{name} must be at least {low}, got {value}")


def _parse_path(text: str) -> PLPath:
    chunks = [chunk.strip() for chunk in text.split(";") if chunk.strip()]
    return _checked(lambda: PLPath([[qq(c) for c in chunk.split(",")] for chunk in chunks]))


def _load_fixture(spec: str, d: int | None):
    """Fixture elements from a filesystem path or a bundled file name."""
    try:
        text = Path(spec).read_text(encoding="utf-8") if os.path.exists(spec) else fixtures.fixture_text(spec)
    except FileNotFoundError:
        raise UsageError(f"fixture not found: {spec}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read fixture {spec}: {exc}") from None
    return _checked(parse_fixture_elements, text, d)


def _signature_json(sig) -> dict:
    coeffs = {}
    for w in sorted(sig.terms, key=lambda w: (len(w), w)):
        coeffs["".join(map(str, w)) or "e"] = str(sig.terms[w])
    return {"d": sig.d, "maxdeg": sig.maxdeg, "coefficients": coeffs}


def _group_for(name: str, d: int, n: int) -> PermGroup:
    if name == "auto":
        return _checked(stabilizer_structural, d, n)
    return named_group(name, n)


def _emit(data, fmt: str, text_render) -> None:
    print(json.dumps(data) if fmt == "json" else text_render(data))


def _space_output(basis, fmt: str, with_image: int | None = None) -> None:
    image = dim_image(basis, with_image) if with_image is not None else None
    data = _checked(basis.to_json, image)  # an empty basis prints no word, at any d
    _emit(
        data,
        fmt,
        lambda d: "\n".join(
            [f"dim_raw = {d['dim_raw']}"]
            + ([f"dim_image = {d['dim_image']}"] if "dim_image" in d else [])
            + [f"  {b}" for b in d["basis"]]
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigvol",
        description="Exact signature polynomials, positive-matrix stabilizers and volume invariants",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shuffle", help="shuffle product of two elements")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--d", type=int)

    p = sub.add_parser("concat", help="concatenation product of two elements")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--d", type=int)

    p = sub.add_parser("antipode", help="signed word reversal of an element")
    p.add_argument("x")
    p.add_argument("--d", type=int)

    p = sub.add_parser("vol", help="signed-volume element")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--letters", help="letter subset, e.g. 124")

    p = sub.add_parser("lyndon", help="Lyndon words of one degree")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("signature", help="truncated signature of a path")
    p.add_argument("--path", required=True, help="control points 'x1,y1;x2,y2;...'")
    p.add_argument("--maxdeg", type=int, required=True)

    p = sub.add_parser("pair", help="signature functional applied to an element")
    p.add_argument("--path", required=True)
    p.add_argument("--element")
    p.add_argument("--fixture")
    p.add_argument("--name", help="element name inside the fixture file")
    p.add_argument("--d", type=int)

    p = sub.add_parser("hmap", help="signature polynomial of an element on n points")
    p.add_argument("element")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--coords", choices=("increments", "points"), default="increments")

    p = sub.add_parser("stabilizer", help="positivity stabilizer subgroup of S_n")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("structural", "brute"), default="structural")

    p = sub.add_parser("gale", help="facets of the cyclic polytope by the evenness criterion")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("volume", help="signed and triangulation volume of a positive instance")
    p.add_argument("--moment-curve", required=True, help="increasing parameters t1,t2,...")
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("inv-space", help="graded invariants of a group action on control points")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--group", choices=("auto",) + GROUP_NAMES, default="auto")

    p = sub.add_parser("kernel-space", help="graded kernel of the n-point signature map")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("timerev-space", help="antipode-fixed elements of one degree")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("loopclosure-space", help="loop-closure invariants of one degree")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--segments", type=int, help="segment count override")

    p = sub.add_parser("inv-d", help="simultaneous invariants of one degree (all point counts)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("check-element", help="membership checks for fixture elements")
    p.add_argument("--fixture", required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--check", default="invariant", help="comma list: invariant,kernel,timerev,loopclosure")
    p.add_argument("--segments", type=int)

    p = sub.add_parser("conjecture", help="evidence report for the d+2-point conjecture")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("reproduce-paper", help="run the bundled verification suite")
    p.add_argument("--only", type=int, action="append", help="restrict to one criterion (repeatable)")

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # parsing leaves no state on the parser, so one serves every `run` of a process
    return build_parser()


def _attach_option_values(argv: list[str]) -> list[str]:
    """Rewrite `--opt -value` as `--opt=-value`.

    argparse reads a token that starts with '-' and is not a plain negative
    number as an option, so `--path -3,4;1,1` would leave --path without its
    value.  Every option of this CLI except --help takes one value, so the
    token after it is that value unless it is an option itself (`--...` or
    `-h`).  Everything after a bare `--` is left alone.
    """
    out: list[str] = []
    for i, token in enumerate(argv):
        if token == "--":
            return out + argv[i:]
        prev = out[-1] if out else ""
        if (
            prev.startswith("--")
            and "=" not in prev
            and not "--help".startswith(prev)
            and token.startswith("-")
            and not token.startswith("--")
            and token != "-h"
        ):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_attach_option_values(argv))
    try:
        _check_ranges(args)
        return _dispatch(args)
    except (UsageError, OverflowError) as exc:  # OverflowError: a degree above the packed monomial field
        print(f"sigvol: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    fmt = args.format

    if args.command in ("shuffle", "concat"):
        x = _checked(parse_element, args.x, args.d)
        y = _checked(parse_element, args.y, args.d)
        d = max(x.d, y.d)
        x, y = _checked(parse_element, args.x, d), _checked(parse_element, args.y, d)
        result = shuffle(x, y) if args.command == "shuffle" else concat(x, y)
        _emit({"element": _checked(element_to_text, result)}, fmt, lambda data: data["element"])
        return 0

    if args.command == "antipode":
        x = _checked(parse_element, args.x, args.d)
        _emit({"element": _checked(element_to_text, antipode(x))}, fmt, lambda data: data["element"])
        return 0

    if args.command == "vol":
        _checked(check_text_alphabet, args.d)  # before the d! words are built
        letters = _checked(lambda: tuple(int(ch) for ch in args.letters)) if args.letters else None
        x = _checked(volume_element, args.d, letters)
        _emit({"element": element_to_text(x)}, fmt, lambda data: data["element"])
        return 0

    if args.command == "lyndon":
        _checked(check_text_alphabet, args.d)
        words = ["".join(map(str, w)) for w in _checked(lyndon_words, args.d, args.k)]
        _emit({"d": args.d, "k": args.k, "count": len(words), "words": words}, fmt,
              lambda data: " ".join(data["words"]))
        return 0

    if args.command == "signature":
        path = _parse_path(args.path)
        _checked(check_text_alphabet, path.d)
        sig = pl_signature(path, args.maxdeg)
        data = _signature_json(sig)
        _emit(data, fmt, lambda d: "\n".join(f"{w}: {c}" for w, c in d["coefficients"].items()))
        return 0

    if args.command == "pair":
        path = _parse_path(args.path)
        if args.element:
            elements = {"element": _checked(parse_element, args.element, args.d or path.d)}
        elif args.fixture:
            elements = _load_fixture(args.fixture, args.d)
            if args.name:
                if args.name not in elements:
                    raise UsageError(f"no element {args.name!r} in {args.fixture}")
                elements = {args.name: elements[args.name]}
        else:
            raise UsageError("pair needs --element or --fixture")
        for name, x in elements.items():
            if x.d != path.d:
                raise UsageError(f"element {name} has {x.d} letters but the path lives in dimension {path.d}")
        values = {name: str(path_pair(path, x)) for name, x in elements.items()}
        _emit({"values": values}, fmt,
              lambda d: "\n".join(f"{k} = {v}" for k, v in d["values"].items()))
        return 0

    if args.command == "hmap":
        x = _checked(parse_element, args.element, args.d)
        poly = signature_polynomial(x, args.n)
        if args.coords == "points":
            rendered = polynomial_to_x_text(poly)
        else:
            rendered = polynomial_to_text(poly)
        _emit({"n": args.n, "d": x.d, "polynomial": rendered}, fmt,
              lambda data: data["polynomial"])
        return 0

    if args.command == "stabilizer":
        if args.method == "brute":
            group = _checked(stabilizer_bruteforce, args.d, args.n)
        else:
            group = _checked(stabilizer_structural, args.d, args.n)
        _emit(group.to_json(), fmt,
              lambda data: f"{data['structure_tag']} of order {data['order']}")
        return 0

    if args.command == "gale":
        facets = [list(f) for f in _checked(gale_facets, args.d, args.n)]
        _emit({"d": args.d, "n": args.n, "facets": facets}, fmt,
              lambda data: "\n".join("".join(map(str, f)) for f in data["facets"]))
        return 0

    if args.command == "volume":
        params = _checked(lambda: [qq(t) for t in args.moment_curve.split(",")])
        inst = _checked(moment_curve_instance, args.d, len(params), params)
        sv, tv = signed_volume(inst.path), polytope_volume(inst)
        _emit({"signed_volume": str(sv), "triangulation_volume": str(tv)}, fmt,
              lambda data: f"{data['signed_volume']}\n{data['triangulation_volume']}")
        return 0

    if args.command == "inv-space":
        group = _group_for(args.group, args.d, args.n)
        basis = invariant_space(args.d, args.n, args.k, group)
        _space_output(basis, fmt, with_image=args.n)
        return 0

    if args.command == "kernel-space":
        _space_output(kernel_space(args.d, args.n, args.k), fmt)
        return 0

    if args.command == "timerev-space":
        _space_output(timerev_space(args.d, args.k), fmt)
        return 0

    if args.command == "loopclosure-space":
        _space_output(loopclosure_space(args.d, args.k, segments=args.segments), fmt)
        return 0

    if args.command == "inv-d":
        _space_output(inv_d_space(args.d, args.k), fmt)
        return 0

    if args.command == "check-element":
        checks = [c.strip() for c in args.check.split(",") if c.strip()]
        if not checks:
            raise UsageError(f"--check names no check: {args.check!r}")
        for check in checks:
            if check not in ("invariant", "kernel", "timerev", "loopclosure"):
                raise UsageError(f"unknown check {check!r}")
            if check in ("invariant", "kernel") and args.n is None:
                raise UsageError(f"check {check!r} needs --n")
        elements = _load_fixture(args.fixture, args.d)
        report = {}
        ok = True
        conditions: dict = {}  # one condition per check and (d, n) or (d, m), shared by all elements
        for name, x in elements.items():
            entry = {}
            for check in checks:
                if check == "invariant":
                    if args.n < x.d + 1:
                        raise UsageError(f"check 'invariant' needs --n >= d+1 = {x.d + 1}")
                    entry[check] = is_invariant(x, x.d, args.n, conditions)
                elif check == "kernel":
                    entry[check] = is_in_kernel(x, args.n, conditions)
                elif check == "timerev":
                    entry[check] = antipode(x) == x
                else:
                    entry[check] = loopclosure_membership(x, segments=args.segments, conditions=conditions)
                ok = ok and entry[check]
            report[name] = entry
        _emit({"checks": report, "pass": ok}, fmt,
              lambda data: "\n".join(f"{k}: {v}" for k, v in data["checks"].items()))
        return 0 if ok else 1

    if args.command == "conjecture":
        report = conjecture_evidence(args.d, args.k)
        _emit(report, fmt,
              lambda data: f"dim_image={data['dim_image']} predicted={data['predicted_dim_image']} -> {data['verdict']}")
        return 0

    if args.command == "reproduce-paper":
        known = {num for num, _, _ in verify.CRITERIA}
        unknown = sorted(set(args.only or ()) - known)
        if unknown:
            raise UsageError(f"no criterion {', '.join(map(str, unknown))} (criteria are 1..{max(known)})")
        results = verify.run_all(only=args.only, progress=lambda msg: print(msg, file=sys.stderr))
        if fmt == "json":
            print(json.dumps(results))
        else:
            for r in results:
                print(f"{'PASS' if r['pass'] else 'FAIL'}  {r['criterion']:2d}  {r['description']}")
        return 0 if all(r["pass"] for r in results) else 1

    raise SystemExit(2)


def main() -> None:
    sys.exit(run())
