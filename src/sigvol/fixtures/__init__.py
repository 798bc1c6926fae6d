"""Bundled reference elements and polynomial images.

Element files use the plain-text notation of `freealg`; polynomial files
hold one polynomial in the a[s][i] notation of `sigpoly`, preceded by an
optional ``scale:`` line whose factor multiplies every coefficient.
"""

from __future__ import annotations

from functools import cache
from importlib import resources

from ..exactq import qq
from ..freealg import TensorElement, parse_fixture_elements
from ..sigpoly import IncrementPolynomial, parse_polynomial

_ELEMENT_FILES = {
    "w1": ("invariants_d3_n4.txt", 3),
    "w2": ("invariants_d3_n4.txt", 3),
    "vol3_concat_sq": ("vol3_concat_sq.txt", 3),
    "loop_d2_deg6": ("loop_closure_d2_deg6.txt", 2),
    "vol4_vol3_123": ("level7_kernel_d4.txt", 4),
    "vol4_vol3_124": ("level7_kernel_d4.txt", 4),
    "vol4_vol3_134": ("level7_kernel_d4.txt", 4),
    "vol4_vol3_234": ("level7_kernel_d4.txt", 4),
    "vol3_123_vol4": ("level7_kernel_d4.txt", 4),
    "vol3_124_vol4": ("level7_kernel_d4.txt", 4),
    "vol3_134_vol4": ("level7_kernel_d4.txt", 4),
    "vol3_234_vol4": ("level7_kernel_d4.txt", 4),
}

LEVEL7_NAMES = tuple(name for name in _ELEMENT_FILES if "vol4" in name)


def fixture_text(filename: str) -> str:
    return resources.files(__package__).joinpath(filename).read_text()


def load_elements(filename: str, d: int | None = None) -> dict[str, TensorElement]:
    return parse_fixture_elements(fixture_text(filename), d)


@cache
def _bundled_elements(filename: str, d: int) -> dict[str, TensorElement]:
    # one parse per bundled file: `element` hands out copies, so nothing shared is mutated
    return load_elements(filename, d)


def element(name: str) -> TensorElement:
    filename, d = _ELEMENT_FILES[name]
    return TensorElement(d, _bundled_elements(filename, d)[name].terms)


def load_polynomial(filename: str, d: int, n: int) -> IncrementPolynomial:
    scale = qq(1)
    body: list[str] = []
    for line in fixture_text(filename).splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("scale:"):
            scale = qq(line[6:].strip())
            continue
        body.append(line)
    return parse_polynomial(" ".join(body), d, n).scale(scale)


def image_polynomial(name: str) -> IncrementPolynomial:
    return load_polynomial(f"{name}_image_n4.txt", 3, 4)
