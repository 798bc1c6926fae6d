"""Acceptance suite: every published reference value, checked exactly.

One test per criterion; each prints its own PASS/FAIL line so a plain
``pytest -s tests/test_acceptance.py`` doubles as the reproduction report.
All comparisons are exact rational equality; there are no tolerances.
"""

import random
import sys

from sigvol import invariants, verify

_cache: dict = {}


def _criterion(number: int) -> None:
    ok, detail = verify.run_criterion(number, _cache)
    description = next(desc for num, desc, _ in verify.CRITERIA if num == number)
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {description} -- {detail}",
          file=sys.stderr)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_dimension_table():
    _criterion(1)


def test_criterion_02_bundled_invariants_and_images():
    _criterion(2)


def test_criterion_03_three_point_base_expansion():
    _criterion(3)


def test_criterion_04_stabilizer_cross_validation():
    _criterion(4)


def test_criterion_05_concat_square_memberships():
    _criterion(5)


def test_criterion_06_level_seven_kernel_elements():
    _criterion(6)


def test_criterion_07_planar_loop_closure_invariant():
    _criterion(7)


def test_criterion_08_volume_agreement():
    _criterion(8)


def test_criterion_09_permutation_sampling():
    _criterion(9)


def test_criterion_10_property_suites():
    _criterion(10)


def test_criterion_11_lyndon_counts():
    _criterion(11)


def test_criterion_12_finite_degree_witnesses():
    _criterion(12)


def test_simultaneous_invariants_are_solved_once_per_cache(monkeypatch):
    class Everything:
        dim = 0

        def contains(self, x):
            return True

    calls = []

    def counting_inv_d_space(d, k):
        calls.append((d, k))
        return Everything()

    monkeypatch.setattr(verify, "inv_d_space", counting_inv_d_space)
    monkeypatch.setattr(verify, "kernel_space", lambda d, n, k: Everything())
    cache = {"level7_independent": True}
    verify.check_concat_square(cache)
    verify.check_finite_witnesses(cache)
    assert calls.count((3, 6)) == 1


def test_loopclosure_segment_suite_fails_on_a_wrong_closure_map(monkeypatch):
    # with every closure term dropped, each word is its own closure: the spaces
    # on k and k + 1 segments still agree, and only the pairings with loops fail
    monkeypatch.setattr(invariants, "_closure_functional", lambda word: [])
    assert verify.loopclosure_space(2, 3, segments=3).space == verify.loopclosure_space(2, 3, segments=4).space
    assert not verify._suite_loopclosure_segments(random.Random(987005))
