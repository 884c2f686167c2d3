"""Integral involutive quantales with exact arithmetic.

Two quantales are provided:

* ``FiniteQuantale`` -- a table-defined quantale whose payloads are element
  indices.  Joins and meets are derived from the order table on first use;
  nothing else is trusted until ``check_quantale_laws`` has verified every
  law exhaustively.
* ``LAWVERE`` -- the extended non-negative rationals (``ExtRat``) under
  addition, ordered by the *reverse* of the numeric order (the unit 0 is
  the top element, and joins are numeric infima).  It is a name only: the
  closed forms of its diagonal kernel, ``diagonals.LawvereDiagonals``, are
  the one place its arithmetic is realized.

The other layers reach a quantale only through its kernel,
``diagonals.diagonal_quantaloid``, which also names and formats payloads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import SchemaError

__all__ = [
    "Quantale",
    "LawvereQuantale",
    "FiniteQuantale",
    "LawReport",
    "LAWVERE",
    "check_quantale_laws",
]


class Quantale:
    """What every quantale carries: a name, and whether its kernel is tabulated."""

    name = "quantale"
    is_finite = False
    # The diagonal kernel, built by ``diagonals.diagonal_quantaloid`` on first use.
    _diagonals = None


class LawvereQuantale(Quantale):
    """[0, inf] with addition, unit 0, reverse numeric order, trivial involution."""

    name = "lawvere"


LAWVERE = LawvereQuantale()


class FiniteQuantale(Quantale):
    """Table-defined quantale; payloads are element indices.

    The constructor checks shapes only.  Join and meet tables are derived
    from the order table on first use; a non-lattice order surfaces there
    (and in ``check_quantale_laws``) rather than at load.
    """

    is_finite = True

    def __init__(
        self,
        elements: Sequence[str],
        leq_table: Sequence[Sequence[bool]],
        tensor_table: Sequence[Sequence[str]],
        unit: str,
        involution_table: Sequence[str],
        name: str = "finite",
    ):
        n = len(elements)
        if n == 0:
            raise SchemaError("a quantale needs at least one element")
        if len(set(elements)) != n:
            raise SchemaError("element names must be unique")
        self.name = name
        self.elements = tuple(str(e) for e in elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if unit not in self._index:
            raise SchemaError(f"unit {unit!r} is not an element")
        self._unit = self._index[unit]

        def _check_square(table, label):
            if len(table) != n or any(len(row) != n for row in table):
                raise SchemaError(f"{label} table must be {n}x{n}")

        _check_square(leq_table, "leq")
        _check_square(tensor_table, "tensor")
        if len(involution_table) != n:
            raise SchemaError(f"involution table must have {n} entries")
        for row in leq_table:
            for cell in row:
                if not isinstance(cell, bool):
                    raise SchemaError(f"leq entries must be booleans, got {cell!r}")
        self.leq_table = tuple(tuple(row) for row in leq_table)
        self.tensor_table = tuple(
            tuple(self._lookup(cell, "tensor") for cell in row) for row in tensor_table
        )
        self.involution_table = tuple(
            self._lookup(cell, "involution") for cell in involution_table
        )
        self._join_table: tuple | None = None
        self._meet_table: tuple | None = None
        self._res_left: tuple | None = None
        self._res_right: tuple | None = None
        self._top: int | None = None
        self._bottom: int | None = None

    def _lookup(self, element: str, label: str) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise SchemaError(f"{label} table mentions unknown element {element!r}") from None

    # -- derived tables -------------------------------------------------

    def _bounds(self, a: int, b: int, upper: bool) -> list[int]:
        table = self.leq_table
        if upper:
            return [c for c in range(len(self.elements)) if table[a][c] and table[b][c]]
        return [c for c in range(len(self.elements)) if table[c][a] and table[c][b]]

    def _derive_lattice(self) -> None:
        if self._join_table is not None:
            return
        n = len(self.elements)
        join_t = [[0] * n for _ in range(n)]
        meet_t = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                ubs = self._bounds(a, b, upper=True)
                least = [u for u in ubs if all(self.leq_table[u][v] for v in ubs)]
                if len(least) != 1:
                    raise SchemaError(
                        f"no unique join of {self.elements[a]!r} and {self.elements[b]!r};"
                        " the order is not a lattice"
                    )
                join_t[a][b] = least[0]
                lbs = self._bounds(a, b, upper=False)
                greatest = [u for u in lbs if all(self.leq_table[v][u] for v in lbs)]
                if len(greatest) != 1:
                    raise SchemaError(
                        f"no unique meet of {self.elements[a]!r} and {self.elements[b]!r};"
                        " the order is not a lattice"
                    )
                meet_t[a][b] = greatest[0]
        self._join_table = tuple(tuple(row) for row in join_t)
        self._meet_table = tuple(tuple(row) for row in meet_t)

    @property
    def join_table(self):
        self._derive_lattice()
        return self._join_table

    @property
    def meet_table(self):
        self._derive_lattice()
        return self._meet_table

    def _derive_residuals(self) -> None:
        if self._res_left is not None:
            return
        n = len(self.elements)
        left = [[0] * n for _ in range(n)]
        right = [[0] * n for _ in range(n)]
        for w in range(n):
            for u in range(n):
                left[w][u] = self._join(
                    v for v in range(n) if self.leq_table[self.tensor_table[v][u]][w]
                )
            for v in range(n):
                right[v][w] = self._join(
                    u for u in range(n) if self.leq_table[self.tensor_table[v][u]][w]
                )
        self._res_left = tuple(tuple(row) for row in left)
        self._res_right = tuple(tuple(row) for row in right)

    # -- payload ops ----------------------------------------------------

    def _tensor(self, a: int, b: int) -> int:
        return self.tensor_table[a][b]

    def _join(self, values) -> int:
        # Reads the derived fields directly: going through the properties
        # costs more than a short fold.
        result = self.bottom if self._bottom is None else self._bottom
        table = self._join_table or self.join_table
        for v in values:
            result = table[result][v]
        return result

    def _residual_left(self, w: int, u: int) -> int:
        self._derive_residuals()
        return self._res_left[w][u]

    def _residual_right(self, v: int, w: int) -> int:
        self._derive_residuals()
        return self._res_right[v][w]

    def _involve(self, a: int) -> int:
        return self.involution_table[a]

    @property
    def unit(self) -> int:
        return self._unit

    @property
    def top(self) -> int:
        if self._top is None:
            self._top = _first_witness(self, 1, lambda c: c if all(
                self.leq_table[a][c] for a in self.payloads()) else None)
            if self._top is None:
                raise SchemaError("the order has no top element")
        return self._top

    @property
    def bottom(self) -> int:
        if self._bottom is None:
            self._bottom = _first_witness(self, 1, lambda c: c if all(
                self.leq_table[c][a] for a in self.payloads()) else None)
            if self._bottom is None:
                raise SchemaError("the order has no bottom element")
        return self._bottom

    def payloads(self) -> range:
        return range(len(self.elements))

    @classmethod
    def from_dict(cls, data: dict, name: str = "finite") -> "FiniteQuantale":
        if not isinstance(data, dict):
            raise SchemaError("quantale document must be a JSON object")
        missing = {"elements", "leq", "tensor", "unit", "involution"} - set(data)
        if missing:
            raise SchemaError(f"quantale document is missing keys: {sorted(missing)}")

        def names(value) -> bool:
            return isinstance(value, list) and all(isinstance(v, str) for v in value)

        tensor, leq = data["tensor"], data["leq"]
        if not (names(data["elements"]) and names(data["involution"])):
            raise SchemaError("quantale elements and involution must be lists of names")
        if not (isinstance(tensor, list) and all(names(row) for row in tensor)):
            raise SchemaError("quantale tensor must be a list of rows of names")
        if not (isinstance(leq, list) and all(isinstance(row, list) for row in leq)):
            raise SchemaError("quantale leq must be a list of rows")
        if not isinstance(data["unit"], str):
            raise SchemaError(f"quantale unit must be a name, got {data['unit']!r}")
        return cls(
            data["elements"], leq, tensor, data["unit"], data["involution"], name=name
        )


# -- law verification ----------------------------------------------------


@dataclass(frozen=True)
class LawReport:
    """Outcome of the exhaustive law suite for a finite quantale."""

    results: tuple[tuple[str, bool, str | None], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def failures(self) -> list[tuple[str, str | None]]:
        return [(law, witness) for law, ok, witness in self.results if not ok]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "laws": [
                {"law": law, "ok": ok, "witness": witness}
                for law, ok, witness in self.results
            ],
        }


def _first_witness(q: Quantale, arity: int, witness):
    """The first ``witness(*elements)`` that is not None, over the ``arity``-tuples
    of payloads in load order with the last position varying fastest."""
    for elements in itertools.product(q.payloads(), repeat=arity):
        found = witness(*elements)
        if found is not None:
            return found
    return None


def check_quantale_laws(q: FiniteQuantale) -> LawReport:
    """Exhaustively verify every defining law; witnesses name offending elements.

    A witness is the first failing element tuple in load order, the last
    position varying fastest.  A broken order or lattice ends the report,
    since every later law reads the join table.
    """
    names, leq, tensor, involve = q.elements, q.leq_table, q._tensor, q._involve

    def report(laws: list[tuple[str, str | None]]) -> LawReport:
        return LawReport(tuple((law, witness is None, witness) for law, witness in laws))

    def at(*elements) -> str:
        """One element by name, several as a parenthesized tuple of names."""
        if len(elements) == 1:
            return names[elements[0]]
        return "(" + ", ".join(names[e] for e in elements) + ")"

    def failure(arity: int, fails, prefix: str = "") -> str | None:
        return _first_witness(q, arity, lambda *e: prefix + at(*e) if fails(*e) else None)

    # Each prefixed witness is non-empty, so ``or`` runs the next scan only on None.
    order = (
        failure(1, lambda a: not leq[a][a], "not reflexive at ")
        or failure(2, lambda a, b: a != b and leq[a][b] and leq[b][a], "not antisymmetric at ")
        or failure(3, lambda a, b, c: leq[a][b] and leq[b][c] and not leq[a][c],
                   "not transitive at ")
    )
    if order is not None:
        return report([("partial_order", order)])
    try:
        q._derive_lattice()
    except SchemaError as exc:
        return report([("partial_order", None), ("complete_lattice", str(exc))])
    join, bottom, unit = q.join_table, q.bottom, q.unit

    # Binary and empty joins suffice for arbitrary joins in a finite lattice.
    def join_fault(a, b, c):
        jbc = join[b][c]
        if tensor(a, jbc) != join[tensor(a, b)][tensor(a, c)]:
            return "left arg at " + at(a, b, c)
        if tensor(jbc, a) != join[tensor(b, a)][tensor(c, a)]:
            return "right arg at " + at(a, b, c)
        return None

    return report([
        ("partial_order", None),
        ("complete_lattice", None),
        ("tensor_associative", failure(
            3, lambda a, b, c: tensor(tensor(a, b), c) != tensor(a, tensor(b, c))
        )),
        ("unit_identity", failure(1, lambda a: tensor(unit, a) != a or tensor(a, unit) != a)),
        ("unit_is_top", None if unit == q.top else f"unit {names[unit]} is not the top element"),
        ("tensor_join_preserving", _first_witness(q, 1, lambda a: (
            "bottom not absorbed at " + at(a)
            if tensor(a, bottom) != bottom or tensor(bottom, a) != bottom
            else _first_witness(q, 2, lambda b, c: join_fault(a, b, c))
        ))),
        ("involution_involutive", failure(1, lambda a: involve(involve(a)) != a)),
        ("involution_antihomomorphism", failure(
            2, lambda a, b: involve(tensor(a, b)) != tensor(involve(b), involve(a))
        )),
        ("involution_join_preserving", "bottom not preserved" if involve(bottom) != bottom
         else failure(2, lambda a, b: involve(join[a][b]) != join[involve(a)][involve(b)])),
        ("residuation_adjunction", failure(3, lambda a, b, c: not (
            leq[tensor(a, b)][c] == leq[a][q._residual_left(c, b)]
            == leq[b][q._residual_right(a, c)]
        ))),
    ])

