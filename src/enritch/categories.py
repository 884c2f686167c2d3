"""Categories enriched in a diagonal quantaloid, functors and presheaves.

A category here is a typed set with a square hom relation that contains the
identity relation and absorbs its own square.  Symmetry means the hom equals
its involution transpose.

A presheaf is a (type, column) pair (q, values), a distributor column into
the one-object category of type q, as the kernel's ``residual_matrix``
takes it; the library builds every presheaf it holds.  The presheaf
category hom is the left residual, and the Yoneda columns hom(-, x)
realize every object as a presheaf of its own type.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .diagonals import DiagonalQuantaloid
from .errors import InvariantError, PreconditionError, ShapeMismatchError
from .relations import (
    QRelation,
    TypedSet,
    rel_compose,
    rel_involve,
)

__all__ = [
    "QCategory",
    "QFunctor",
    "CategoryReport",
    "FunctorReport",
    "validate_category",
    "require_valid",
    "is_symmetric",
    "validate_functor",
    "require_functor",
    "is_fully_faithful",
    "graph",
    "cograph",
    "enumerate_presheaves",
]


@dataclass(frozen=True)
class QCategory:
    """A typed set with a square hom matrix (laws checked by validate_category)."""

    objects: TypedSet
    hom: QRelation

    def __post_init__(self):
        if self.hom.source != self.objects or self.hom.target != self.objects:
            raise ShapeMismatchError("hom must be a square relation on the carrier")

    @property
    def quantaloid(self) -> DiagonalQuantaloid:
        return self.objects.quantaloid

    @property
    def names(self) -> tuple[str, ...]:
        return self.objects.names

    def __len__(self) -> int:
        return len(self.objects)

    def type_payload(self, name: str):
        return self.objects.type_of(name)

    def to_dict(self) -> dict:
        fmt = self.quantaloid.format
        return {
            "set": self.objects.to_dict(),
            "hom": [[fmt(u) for u in row] for row in self.hom.entries],
        }


@dataclass(frozen=True)
class CategoryReport:
    reflexive: bool
    reflexive_witness: str | None
    transitive: bool
    transitive_witness: tuple[str, str, str] | None

    @property
    def valid(self) -> bool:
        return self.reflexive and self.transitive

    def to_dict(self) -> dict:
        return {
            "reflexive": self.reflexive,
            "reflexive_witness": self.reflexive_witness,
            "transitive": self.transitive,
            "transitive_witness": (
                list(self.transitive_witness) if self.transitive_witness else None
            ),
        }


def validate_category(c: QCategory) -> CategoryReport:
    dq = c.quantaloid
    names = c.names
    types = c.objects.types
    hom = c.hom.entries

    refl_witness = None
    for i, name in enumerate(names):
        if not dq.leq(dq.identity(types[i]), hom[i][i]):
            refl_witness = name
            break

    witness = dq.transitivity_witness(types, hom)
    trans_witness = None if witness is None else tuple(names[i] for i in witness)

    return CategoryReport(
        reflexive=refl_witness is None,
        reflexive_witness=refl_witness,
        transitive=trans_witness is None,
        transitive_witness=trans_witness,
    )


def require_valid(c: QCategory) -> None:
    report = validate_category(c)
    if not report.valid:
        raise PreconditionError(f"not a valid category: {report.to_dict()}")


def is_symmetric(c: QCategory) -> bool:
    return c.hom == rel_involve(c.hom)


def _require_symmetric(c: QCategory) -> None:
    """Refuse a category that is not valid and symmetric.

    Success is decided once per instance and kept as the mark of
    ``_mark_symmetric``; a refusal is not kept.  A marked category is
    trusted without a check: either it passed here, or the hull checked it
    itself (``tight_span``), or built it from a marked one in a way that
    keeps both laws (``one_point_extensions`` and ``full_subcategory`` say
    why).
    """
    if getattr(c, "_symmetric", False):
        return
    require_valid(c)
    if not is_symmetric(c):
        raise PreconditionError("the category must be symmetric")
    _mark_symmetric(c)


def _mark_symmetric(c: QCategory, parent: QCategory | None = None) -> None:
    """Mark c as known to be valid and symmetric; given a parent, only when
    the parent carries the mark.

    The mark is an attribute outside the dataclass fields, which ``==``,
    ``hash`` and ``to_dict`` ignore.  It is assigned rather than cached
    through ``__dict__``, which would give every checked category a dict of
    its own.  Only a category that passed ``_require_symmetric`` or the
    same two checks elsewhere, or one built from a marked category by a
    construction that keeps both laws, may carry it.
    """
    if parent is None or getattr(parent, "_symmetric", False):
        object.__setattr__(c, "_symmetric", True)


@dataclass(frozen=True)
class QFunctor:
    """A type-preserving hom-increasing map, stored as a total assignment:
    the codomain position of each domain point, in domain order.  Names
    appear only in ``as_dict``, the form a report shows."""

    domain: QCategory
    codomain: QCategory
    assignment: tuple[int, ...]

    def __post_init__(self):
        if self.domain.objects.quantaloid is not self.codomain.objects.quantaloid:
            raise ShapeMismatchError("domain and codomain live over different quantaloids")
        if type(self.assignment) is not tuple:
            object.__setattr__(self, "assignment", tuple(self.assignment))
        if len(self.assignment) != len(self.domain):
            raise ShapeMismatchError("assignment must cover every domain object")
        n = len(self.codomain)
        for target in self.assignment:
            if type(target) is not int or not 0 <= target < n:
                raise ShapeMismatchError(f"{target!r} is not a position in the codomain")

    def as_dict(self) -> dict[str, str]:
        names = self.codomain.names
        return {x: names[a] for x, a in zip(self.domain.names, self.assignment)}


@dataclass(frozen=True)
class FunctorReport:
    type_preserving: bool
    type_witness: str | None
    hom_increasing: bool
    hom_witness: tuple[str, str] | None

    @property
    def valid(self) -> bool:
        return self.type_preserving and self.hom_increasing

    def to_dict(self) -> dict:
        return {
            "type_preserving": self.type_preserving,
            "type_witness": self.type_witness,
            "hom_increasing": self.hom_increasing,
            "hom_witness": list(self.hom_witness) if self.hom_witness else None,
        }


def validate_functor(f: QFunctor) -> FunctorReport:
    dq = f.domain.quantaloid
    dom, cod, fx = f.domain, f.codomain, f.assignment
    type_witness = None
    for i, name in enumerate(dom.names):
        if dom.objects.types[i] != cod.objects.types[fx[i]]:
            type_witness = name
            break
    hom_witness = None
    if type_witness is None:
        n = len(dom)
        for i in range(n):
            for j in range(n):
                if not dq.leq(dom.hom.entries[i][j], cod.hom.entries[fx[i]][fx[j]]):
                    hom_witness = (dom.names[i], dom.names[j])
                    break
            if hom_witness:
                break
    return FunctorReport(
        type_preserving=type_witness is None,
        type_witness=type_witness,
        hom_increasing=hom_witness is None,
        hom_witness=hom_witness,
    )


def require_functor(f: QFunctor) -> None:
    report = validate_functor(f)
    if not report.valid:
        raise PreconditionError(f"not a functor: {report.to_dict()}")


def _fully_faithful(f: QFunctor) -> bool:
    """Entrywise hom equality, trusting that f is already a valid functor."""
    dom_hom, cod_hom, fx = f.domain.hom.entries, f.codomain.hom.entries, f.assignment
    return all(
        row[j] == cod_hom[a][b] for row, a in zip(dom_hom, fx) for j, b in enumerate(fx)
    )


def is_fully_faithful(f: QFunctor) -> bool:
    """Entrywise hom equality, cross-checked against cograph . graph = hom.

    This is the validating boundary: it refuses an invalid functor, and a
    disagreement between the two criteria raises ``InvariantError``.  The
    essentiality search calls the pointwise ``_fully_faithful`` directly on
    functors its own search built or composed from valid ones.
    """
    require_functor(f)
    pointwise = _fully_faithful(f)
    via_graphs = rel_compose(cograph(f), graph(f)) == f.domain.hom
    if pointwise != via_graphs:
        raise InvariantError("fully-faithful criteria disagree")
    return pointwise


def graph(f: QFunctor) -> QRelation:
    """The relation X -> Y with entries hom_Y(fx, y)."""
    cod_hom = f.codomain.hom.entries
    entries = tuple(cod_hom[a] for a in f.assignment)
    return QRelation(f.domain.objects, f.codomain.objects, entries)


def cograph(f: QFunctor) -> QRelation:
    """The relation Y -> X with entries hom_Y(y, fx)."""
    entries = tuple(tuple(row[a] for a in f.assignment) for row in f.codomain.hom.entries)
    return QRelation(f.codomain.objects, f.domain.objects, entries)


# -- presheaves -------------------------------------------------------------


def _distributor_holds(c: QCategory, q, values: Sequence) -> bool:
    """values . hom <= values, the one-sided distributor law for a column."""
    return c.quantaloid.distributor_holds(c.objects.types, c.hom.entries, q, values)


def enumerate_presheaves(c: QCategory) -> Iterator[tuple]:
    """(q, values) for every column that obeys the distributor law, types in
    element load order, values lexicographic, lazily: the one walk over hom
    columns, which ``hull.enumerate_ambient`` filters."""
    dq = c.quantaloid
    types = c.objects.types
    for q in dq.objects():
        for values in itertools.product(*(dq.hom(t, q) for t in types)):
            if _distributor_holds(c, q, values):
                yield q, values
