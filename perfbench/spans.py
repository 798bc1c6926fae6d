"""Per-module spans around sigvol's layers, recorded from the benchmark side.

`Tracer.install` replaces each wrapped function at every place it is bound:
the class attribute for methods, and every `sigvol.*` module attribute that
holds the function for module-level ones (`cli`, `invariants` and `verify`
import `nullspace`, `intersect` and the solvers by name).  Each layer has a
depth guard, so a recursive or nested call inside an open span of the same
layer records nothing: `SigPolyCalculator._poly` recurses, `element_poly`
calls `_poly`, `dim_image` calls `kernel_space`.

Spans live in memory as [name, start, end, parent index, counts] and are
written out by `dump` when the run ends.  The root of each tree is the
command span the benchmark opens around `sigvol.cli.run`.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _terms(result) -> int:
    return len(getattr(result, "terms", result))


def _subst_counts(args, result) -> dict:
    return {"subst_terms": len(args[1].terms)}


def _nullspace_counts(args, result) -> dict:
    matrix = args[0]
    exactq = sys.modules["sigvol.exactq"]
    nnz = matrix.nnz()
    return {
        "matrix_nnz": nnz,
        "matrix_cells": matrix.nrows * matrix.ncols,
        "modular_solves": int(nnz > exactq.MODULAR_NNZ_THRESHOLD),
    }


# layer name -> (module, attributes wrapped, counts taken from (args, result))
LAYERS = {
    "sigpoly.columns": ("sigvol.sigpoly",
                        ("SigPolyCalculator._poly", "SigPolyCalculator.element_poly",
                         "SigPolyCalculator.word_poly"),
                        lambda args, result: {"column_terms": _terms(result)}),
    "sigpoly.subst": ("sigvol.sigpoly", ("LinearSubstitution.apply",), _subst_counts),
    "sigpoly.signature": ("sigvol.sigpoly", ("pl_signature",), None),
    "exactq.assemble": ("sigvol.exactq", ("MatrixBuilder.add_column", "MatrixBuilder.build"), None),
    "exactq.nullspace": ("sigvol.exactq", ("nullspace",), _nullspace_counts),
    "exactq.intersect": ("sigvol.exactq", ("intersect",), None),
    "invariants.solve": ("sigvol.invariants",
                         ("kernel_space", "invariant_space", "timerev_space", "loopclosure_space",
                          "inv_d_space", "dim_image", "is_invariant", "loopclosure_membership",
                          "conjecture_evidence"),
                         None),
    "freealg.parse": ("sigvol.freealg", ("parse_element", "parse_fixture_elements"), None),
    "freealg.text": ("sigvol.freealg", ("element_to_text",), None),
    "posgeom.volume": ("sigvol.posgeom", ("signed_volume", "polytope_volume"), None),
    "posgeom.stabilizer": ("sigvol.posgeom", ("stabilizer_bruteforce", "stabilizer_structural"), None),
}
COMMAND = "cli.command"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, counts: dict | None = None) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4] = counts
        self._stack.pop()

    def _wrap(self, layer: str, fn, count, busy: list[bool]):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            index = self.open(layer)
            result, counts = None, None
            try:
                result = fn(*args, **kwargs)
                counts = count(args, result) if count else None
                return result
            finally:
                self.close(index, counts)
                busy[0] = False

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "sigvol" or name.startswith("sigvol."))]
        for layer, (module_name, attributes, count) in LAYERS.items():
            busy = [False]  # the layer's depth guard
            module = sys.modules[module_name]
            for attribute in attributes:
                owner_name, _, name = attribute.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[name]
                    self._set(owner, name, self._wrap(layer, original, count, busy))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(layer, original, count, busy)
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, bound, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def dump(self, path, extra: dict) -> None:
        with open(path, "w") as handle:
            json.dump({**extra, "columns": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans}, handle)


def layer_totals(spans: list[list], first: int, last: int) -> dict[str, dict]:
    """Per layer: calls, inclusive seconds, self seconds and summed counts.

    `spans[first:last]` must hold whole command trees; self time is a span's
    duration minus that of its direct children.
    """
    totals: dict[str, dict] = {}
    child_time = [0.0] * (last - first)
    for i in range(first, last):
        parent = spans[i][3]
        if parent >= first:
            child_time[parent - first] += spans[i][2] - spans[i][1]
    for i in range(first, last):
        name, start, end, _, counts = spans[i]
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i - first]
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return totals


def per_layer_metrics(totals: dict[str, dict]) -> dict[str, float]:
    """The BENCHMARK.json per-layer metrics of one round."""

    def get(layer: str, field: str = "total_s", count: str | None = None):
        entry = totals.get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
        return entry["counts"].get(count, 0) if count else entry[field]

    return {
        "sigpoly.columns_s": get("sigpoly.columns"),
        "sigpoly.columns": get("sigpoly.columns", "calls"),
        "sigpoly.column_terms": get("sigpoly.columns", count="column_terms"),
        "sigpoly.subst_s": get("sigpoly.subst"),
        "sigpoly.substs": get("sigpoly.subst", "calls"),
        "sigpoly.subst_terms": get("sigpoly.subst", count="subst_terms"),
        "sigpoly.signature_s": get("sigpoly.signature"),
        "sigpoly.signatures": get("sigpoly.signature", "calls"),
        "exactq.assemble_s": get("exactq.assemble"),
        "exactq.nullspace_s": get("exactq.nullspace"),
        "exactq.nullspaces": get("exactq.nullspace", "calls"),
        "exactq.matrix_nnz": get("exactq.nullspace", count="matrix_nnz"),
        "exactq.matrix_cells": get("exactq.nullspace", count="matrix_cells"),
        "exactq.modular_solves": get("exactq.nullspace", count="modular_solves"),
        "exactq.intersect_s": get("exactq.intersect"),
        "invariants.self_s": get("invariants.solve", "self_s"),
        "invariants.solves": get("invariants.solve", "calls"),
        "freealg.parse_s": get("freealg.parse"),
        "freealg.text_s": get("freealg.text"),
        "posgeom.volume_s": get("posgeom.volume"),
        "posgeom.stabilizer_s": get("posgeom.stabilizer"),
        "cli.self_s": get(COMMAND, "self_s"),
        "cli.commands": get(COMMAND, "calls"),
        "cli.stdout_bytes": get(COMMAND, count="stdout_bytes"),
        "cli.total_s": get(COMMAND),
    }


def mean_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-round means; a count that is the same in every round stays whole."""
    out = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        out[name] = values[0] if len(set(values)) == 1 else sum(values) / len(values)
    return out
