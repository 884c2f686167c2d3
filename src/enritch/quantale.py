"""Integral involutive quantales with exact arithmetic.

Two realizations are provided:

* ``LawvereQuantale`` -- the extended non-negative rationals under addition,
  ordered by the *reverse* of the numeric order (so ``leq(a, b)`` means
  ``a >= b`` numerically, the unit 0 is the top element, and joins are
  numeric infima).
* ``FiniteQuantale`` -- a table-defined quantale.  Joins and meets are
  derived from the order table on first use; nothing else is trusted until
  ``check_quantale_laws`` has verified every law exhaustively.

Values are bare payloads (``ExtRat`` or element indices) handled by the
underscore operations of their quantale; ``parse_value`` and
``format_value`` convert them to and from their names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Sequence

from .errors import SchemaError, UnsupportedQuantaleError
from .rationals import INF, ZERO, ExtRat

__all__ = [
    "Quantale",
    "LawvereQuantale",
    "FiniteQuantale",
    "LawReport",
    "LAWVERE",
    "check_quantale_laws",
]


class Quantale:
    """Payload-level operations, shared by every realization."""

    name = "quantale"
    is_finite = False
    # The diagonal kernel, built by ``diagonals.diagonal_quantaloid`` on first use.
    _diagonals = None

    # -- payload level ------------------------------------------------

    def _leq(self, a, b) -> bool:
        raise NotImplementedError

    def _tensor(self, a, b):
        raise NotImplementedError

    def _join(self, values: Iterable):
        raise NotImplementedError

    def _meet(self, values: Iterable):
        raise NotImplementedError

    def _residual_left(self, w, u):
        """w / u = join {v : v (x) u <= w}."""
        raise NotImplementedError

    def _residual_right(self, v, w):
        """v \\ w = join {u : v (x) u <= w}."""
        raise NotImplementedError

    def _involve(self, a):
        raise NotImplementedError

    @property
    def unit(self):
        raise NotImplementedError

    @property
    def bottom(self):
        raise NotImplementedError

    def payloads(self) -> Sequence:
        raise UnsupportedQuantaleError(
            f"{self.name} has infinitely many elements;"
            " the partial-metric module covers the extended rationals"
        )

    def format_value(self, payload) -> str:
        raise NotImplementedError

    def parse_value(self, text) -> Any:
        raise NotImplementedError


class LawvereQuantale(Quantale):
    """[0, inf] with addition, unit 0, reverse numeric order, trivial involution."""

    name = "lawvere"
    is_finite = False

    def _leq(self, a: ExtRat, b: ExtRat) -> bool:
        return a >= b

    def _tensor(self, a: ExtRat, b: ExtRat) -> ExtRat:
        return a + b

    def _join(self, values) -> ExtRat:
        result = INF
        for v in values:
            if v < result:
                result = v
        return result

    def _meet(self, values) -> ExtRat:
        result = ZERO
        for v in values:
            if v > result:
                result = v
        return result

    def _residual_left(self, w: ExtRat, u: ExtRat) -> ExtRat:
        return w.monus(u)

    def _residual_right(self, v: ExtRat, w: ExtRat) -> ExtRat:
        return w.monus(v)

    def _involve(self, a: ExtRat) -> ExtRat:
        return a

    @property
    def unit(self) -> ExtRat:
        return ZERO

    @property
    def bottom(self) -> ExtRat:
        return INF

    def format_value(self, payload: ExtRat) -> str:
        return str(payload)

    def parse_value(self, text) -> ExtRat:
        if isinstance(text, ExtRat):
            return text
        if isinstance(text, (int, Fraction)):
            return ExtRat(text)
        if isinstance(text, str):
            return ExtRat.parse(text)
        raise SchemaError(f"cannot interpret {text!r} as an extended rational")


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

    def _leq(self, a: int, b: int) -> bool:
        return self.leq_table[a][b]

    def _tensor(self, a: int, b: int) -> int:
        return self.tensor_table[a][b]

    # Joins and meets read the derived fields directly: going through the
    # properties costs more than a short fold.

    def _join(self, values) -> int:
        result = self.bottom if self._bottom is None else self._bottom
        table = self._join_table or self.join_table
        for v in values:
            result = table[result][v]
        return result

    def _meet(self, values) -> int:
        result = self.top if self._top is None else self._top
        table = self._meet_table or self.meet_table
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

    def format_value(self, payload: int) -> str:
        return self.elements[payload]

    def parse_value(self, text) -> int:
        if isinstance(text, str):
            return self._lookup(text, "value")
        if isinstance(text, int) and 0 <= text < len(self.elements):
            return text
        raise SchemaError(f"cannot interpret {text!r} as an element of {self.name}")

    def to_dict(self) -> dict:
        return {
            "elements": list(self.elements),
            "leq": [list(row) for row in self.leq_table],
            "tensor": [[self.elements[c] for c in row] for row in self.tensor_table],
            "unit": self.elements[self._unit],
            "involution": [self.elements[c] for c in self.involution_table],
        }

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

