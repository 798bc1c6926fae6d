"""The three workloads: seeded CLI argv lists, each with its output checker.

A workload is a fixed list of commands.  `--seed` draws the random inputs
(paths, moment-curve parameters) and the random probes the checkers use;
the program sees only the argv lists.  A checker gets the parsed JSON that
the command printed and raises `CheckError` when it is wrong.  Every
checker compares with a computation in `oracle` or with a published value,
never with a stored copy of sigvol's own output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle

# Published values (the paper's graded dimension table and stabilizer orders).
IMAGE_DIMS_D3_N4 = {1: 0, 2: 0, 3: 1, 4: 0, 5: 6, 6: 11}
STABILIZER_ORDERS = {
    (2, 4): 4, (2, 5): 5, (2, 6): 6,
    (3, 4): 12, (3, 5): 6, (3, 6): 2, (3, 7): 2,
    (4, 6): 36, (4, 7): 14,
    (5, 7): 72, (5, 8): 1,
    (6, 9): 9,
}
# Even permutations of 4 control points generate the stabilizer for d = 3, n = 4.
A4_GENERATORS = ((1, 2, 0, 3), (0, 2, 3, 1))
LEVEL7_NAMES = tuple(
    f"vol4_vol3_{s}" for s in ("123", "124", "134", "234")
) + tuple(f"vol3_{s}_vol4" for s in ("123", "124", "134", "234"))

WORKLOADS = ("invariants", "kernels", "paths")


class CheckError(Exception):
    """A command's output disagrees with the reference computation."""


@dataclass
class Command:
    argv: list[str]
    check: Callable[[dict], None]


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _basis(out: dict) -> list[dict]:
    """The parsed basis, after checking that it is one: dim_raw vectors, independent."""
    expect(out["dim_raw"] == len(out["basis"]), "dim_raw differs from the basis length")
    basis = [oracle.parse_element(text) for text in out["basis"]]
    if basis:
        words = sorted({w for x in basis for w in x})
        # a rank mod p equal to the number of vectors proves them independent over Q
        expect(oracle.rank_mod_p(oracle.elements_mod_p(basis, words)) == len(basis),
               "the basis vectors are linearly dependent")
    return basis


def _kernel_basis(out: dict, d: int, n: int, k: int) -> list[dict]:
    """A basis of the whole degree-k kernel of the n-point signature map.

    The dimension must be d^k minus the rank of the oracle's signature
    matrix, and every vector must map to 0 under that matrix mod p.
    """
    basis = _basis(out)
    dim = oracle.kernel_dimension(d, n, k)
    expect(len(basis) == dim, f"({d},{n},{k}): kernel dimension {len(basis)} != {dim}")
    words, matrix = oracle.signature_matrix_mod_p(d, n, k)
    expect(not oracle.product_mod_p(oracle.elements_mod_p(basis, words), matrix).any(),
           f"({d},{n},{k}): a basis vector is outside the kernel of the signature matrix")
    return basis


def _random_points(rng: random.Random, d: int, n: int, den: int = 3) -> list[tuple[Fraction, ...]]:
    return [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(d)) for _ in range(n)]


def _timed_points(rng: random.Random, d: int, n: int) -> list[tuple[Fraction, ...]]:
    """Random points whose arithmetic cost barely depends on the seed.

    No coordinate is 0 (a zero increment coordinate shrinks the work) and the
    denominator of each slot is fixed, with a numerator prime to it.
    """
    dens = (1, 2, 3, 5)
    points = []
    for j in range(n):
        point = []
        for i in range(d):
            den = dens[(j * d + i) % len(dens)]
            num = rng.choice([v for v in range(-9, 10) if v and (den == 1 or v % den)])
            point.append(Fraction(num, den))
        points.append(tuple(point))
    return points


def _path_arg(points) -> str:
    return ";".join(",".join(str(c) for c in p) for p in points)


def _sample(rng: random.Random, items: list, count: int) -> list:
    return items if len(items) <= count else rng.sample(items, count)


def _vanishes_on(points_list):
    def check(elements: list[dict], what: str) -> None:
        for points in points_list:
            incs = oracle.increments(points)
            for x in elements:
                expect(oracle.pair(incs, x) == 0, f"{what}: an element pairs to nonzero on {points}")
    return check


# ---------------------------------------------------------------------------
# invariants: the graded dimension table and loop closure (criteria 1 and 7)
# ---------------------------------------------------------------------------


def invariants(seed: int, fixtures: Path) -> list[Command]:
    rng = random.Random(seed)
    probe_paths = [_random_points(rng, 3, 4) for _ in range(2)]
    planar = {k: [_random_points(rng, 2, k + 1) for _ in range(2)] for k in (4, 5)}
    picks = random.Random(rng.random())

    def inv_space(k: int) -> Command:
        def check(out: dict) -> None:
            expect(out["dim_image"] == IMAGE_DIMS_D3_N4[k],
                   f"degree {k}: dim_image {out['dim_image']} != {IMAGE_DIMS_D3_N4[k]}")
            basis = _basis(out)
            if k == 3:
                expect(oracle.in_span(basis, oracle.volume_element((1, 2, 3))),
                       "degree 3: the signed-volume element is not in the span")
            # invariance: pairing is unchanged by even permutations of the control points
            for x in _sample(picks, basis, 4):
                for points in probe_paths:
                    value = oracle.pair(oracle.increments(points), x)
                    for g in A4_GENERATORS:
                        moved = [points[i] for i in g]
                        expect(oracle.pair(oracle.increments(moved), x) == value,
                               f"degree {k}: a basis element is not invariant under {g}")

        return Command(["inv-space", "--d", "3", "--n", "4", "--k", str(k)], check)

    def loop_space(k: int) -> Command:
        def check(out: dict) -> None:
            basis = _basis(out)
            if k == 4:
                area = {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)}
                expect(oracle.in_span(basis, oracle.shuffle(area, area)),
                       "degree 4: the shuffle square of the signed area is not in the span")
            for points in planar[k]:
                closures = (points + points[:1], points[-1:] + points)
                for x in basis:
                    value = oracle.pair(oracle.increments(points), x)
                    for closed in closures:
                        expect(oracle.pair(oracle.increments(closed), x) == value,
                               f"degree {k}: a basis element changes under loop closure")

        return Command(["loopclosure-space", "--d", "2", "--k", str(k)], check)

    return [inv_space(k) for k in range(1, 7)] + [loop_space(4), loop_space(5)]


# ---------------------------------------------------------------------------
# kernels: kernels of the n-point map and the level-7 elements (criteria 5, 6)
# ---------------------------------------------------------------------------


def kernels(seed: int, fixtures: Path) -> list[Command]:
    rng = random.Random(seed)
    level7 = oracle.parse_fixture((fixtures / "level7_kernel_d4.txt").read_text())
    on_5_points = _vanishes_on([_random_points(rng, 3, 5) for _ in range(2)])
    on_4_points = _vanishes_on([_random_points(rng, 2, 4) for _ in range(2)])
    on_6_points = _vanishes_on([_random_points(rng, 4, 6, den=1) for _ in range(2)])
    picks = random.Random(rng.random())

    def check_356(out: dict) -> None:
        basis = _kernel_basis(out, 3, 5, 6)
        expect(len(basis) == 1, f"(3,5,6): kernel dimension {len(basis)} != 1")
        vol3 = oracle.volume_element((1, 2, 3))
        expect(oracle.in_span(basis, oracle.concat(vol3, vol3)),
               "(3,5,6): the concatenation square of the signed volume is not in the kernel")
        on_5_points(basis, "(3,5,6)")

    def check_2410(out: dict) -> None:
        on_4_points(_sample(picks, _kernel_basis(out, 2, 4, 10), 6), "(2,4,10)")

    def check_level7(out: dict) -> None:
        expect(sorted(out["checks"]) == sorted(LEVEL7_NAMES), "level 7: wrong element names")
        expect(all(entry == {"kernel": True} for entry in out["checks"].values()) and out["pass"],
               "level 7: an element is reported outside the 6-point kernel")
        on_6_points([level7[name] for name in LEVEL7_NAMES], "level 7")

    return [
        Command(["kernel-space", "--d", "3", "--n", "5", "--k", "6"], check_356),
        Command(["kernel-space", "--d", "2", "--n", "4", "--k", "10"], check_2410),
        Command(["check-element", "--fixture", "level7_kernel_d4.txt", "--n", "6", "--check", "kernel"],
                check_level7),
    ]


# ---------------------------------------------------------------------------
# paths: exact numeric evaluation (criteria 2, 4 and 8)
# ---------------------------------------------------------------------------

PAIR_PATHS = 8
SIGNATURE_SHAPES = ((2, 6), (2, 6), (3, 4), (3, 4))  # (d, points), truncated at degree 7
VOLUME_SHAPES = ((2, 6), (2, 8), (3, 6), (3, 7), (3, 8), (4, 7))  # (d, points)


def paths(seed: int, fixtures: Path) -> list[Command]:
    rng = random.Random(seed)
    images = {
        name: oracle.parse_polynomial_fixture((fixtures / f"{name}_image_n4.txt").read_text())
        for name in ("w1", "w2")
    }
    commands = []

    for _ in range(PAIR_PATHS):
        points = _timed_points(rng, 3, 4)

        def check_pair(out: dict, incs=oracle.increments(points)) -> None:
            expect(sorted(out["values"]) == ["w1", "w2"], "pair: wrong element names")
            for name, poly in images.items():
                expect(Fraction(out["values"][name]) == oracle.evaluate(poly, incs),
                       f"pair: {name} differs from its bundled image polynomial")

        commands.append(Command(["pair", f"--path={_path_arg(points)}", "--fixture", "invariants_d3_n4.txt"],
                                check_pair))

    for d, n in SIGNATURE_SHAPES:
        points = _timed_points(rng, d, n)

        def check_signature(out: dict, incs=oracle.increments(points)) -> None:
            expected = {"".join(map(str, w)) or "e": c for w, c in oracle.signature(incs, 7).items()}
            got = {w: Fraction(c) for w, c in out["coefficients"].items()}
            expect(got == expected, "signature: coefficients differ from the Chen product")

        commands.append(Command(["signature", f"--path={_path_arg(points)}", "--maxdeg", "7"], check_signature))

    for d, n in VOLUME_SHAPES:
        params: set[Fraction] = set()
        while len(params) < n:
            params.add(Fraction(rng.randint(-30, 30), rng.randint(1, 4)))
        ts = sorted(params)
        points = [tuple(t**e for e in range(1, d + 1)) for t in ts]

        def check_volume(out: dict, points=points) -> None:
            signed, triangulated = Fraction(out["signed_volume"]), Fraction(out["triangulation_volume"])
            expect(signed == triangulated, "volume: signed volume != triangulation volume")
            expect(signed == oracle.hull_volume(points), "volume: differs from the convex hull volume")
            if len(points[0]) == 2:
                expect(signed == oracle.shoelace(points), "volume: differs from the shoelace area")

        commands.append(Command(["volume", f"--moment-curve={','.join(map(str, ts))}", "--d", str(d)],
                                check_volume))

    for (d, n), order in STABILIZER_ORDERS.items():
        def check_stabilizer(out: dict, order=order) -> None:
            expect(out["order"] == order, f"stabilizer: order {out['order']} != {order}")
            expect(len(out.get("elements", [None] * order)) == order, "stabilizer: element count != order")

        commands.append(Command(["stabilizer", "--d", str(d), "--n", str(n), "--method", "brute"],
                                check_stabilizer))
    return commands


BUILDERS = {"invariants": invariants, "kernels": kernels, "paths": paths}
