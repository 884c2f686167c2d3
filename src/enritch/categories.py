"""Categories enriched in a diagonal quantaloid, functors and presheaves.

A category here is a typed set with a square hom relation that contains the
identity relation and absorbs its own square.  Symmetry means the hom equals
its involution transpose.

Presheaves are columns into a one-object category; the presheaf category
hom is the left residual, and the Yoneda columns hom(-, x) realize every
object as a presheaf of its own type.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Sequence

from .diagonals import DiagonalQuantaloid
from .errors import InvariantError, PreconditionError, ShapeMismatchError
from .relations import (
    QRelation,
    TypedSet,
    rel_compose,
    rel_involve,
    single_set,
)

__all__ = [
    "QCategory",
    "QFunctor",
    "Presheaf",
    "CategoryReport",
    "FunctorReport",
    "UnderlyingOrder",
    "validate_category",
    "require_valid",
    "is_symmetric",
    "underlying_order",
    "validate_functor",
    "require_functor",
    "is_fully_faithful",
    "graph",
    "cograph",
    "enumerate_presheaves",
    "presheaf_hom",
    "yoneda",
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

    trans_witness = None
    n = len(names)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                via = dq.compose(hom[i][j], types[j], hom[j][k])
                if not dq.leq(via, hom[i][k]):
                    trans_witness = (names[i], names[j], names[k])
                    break
            if trans_witness:
                break
        if trans_witness:
            break

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
    trusted without a check: either it passed here, or the hull built it
    from a marked one in a way that keeps both laws (``one_point_extensions``
    and ``full_subcategory`` say why).
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
    its own.  Only a category that passed ``_require_symmetric``, or one
    built from a marked category by a construction that keeps both laws,
    may carry it.
    """
    if parent is None or getattr(parent, "_symmetric", False):
        object.__setattr__(c, "_symmetric", True)


@dataclass(frozen=True)
class UnderlyingOrder:
    pairs: frozenset
    iso_classes: tuple[tuple[str, ...], ...]
    separated: bool
    # Object name -> index of its iso class; determined by the fields above.
    class_of: dict[str, int] = field(compare=False, repr=False)

    def class_index(self, name: str) -> int:
        try:
            return self.class_of[name]
        except KeyError:
            raise ShapeMismatchError(f"unknown object {name!r}") from None

    def isomorphic(self, a: str, b: str) -> bool:
        return self.class_index(a) == self.class_index(b)


def underlying_order(c: QCategory) -> UnderlyingOrder:
    """x <= y iff the types agree and hom(x, y) is the identity on that type."""
    dq = c.quantaloid
    names = c.names
    types = c.objects.types
    hom = c.hom.entries
    pairs = set()
    n = len(names)
    for i in range(n):
        for j in range(n):
            if types[i] == types[j] and hom[i][j] == dq.identity(types[i]):
                pairs.add((names[i], names[j]))
    classes: list[list[str]] = []
    assigned: dict[str, int] = {}
    for name in names:
        for idx, cls in enumerate(classes):
            rep = cls[0]
            if (name, rep) in pairs and (rep, name) in pairs:
                cls.append(name)
                assigned[name] = idx
                break
        else:
            assigned[name] = len(classes)
            classes.append([name])
    separated = all(len(cls) == 1 for cls in classes)
    return UnderlyingOrder(
        pairs=frozenset(pairs),
        iso_classes=tuple(tuple(cls) for cls in classes),
        separated=separated,
        class_of=assigned,
    )


@dataclass(frozen=True)
class QFunctor:
    """A type-preserving hom-increasing map, stored as a total assignment."""

    domain: QCategory
    codomain: QCategory
    assignment: tuple[str, ...]

    def __post_init__(self):
        if self.domain.objects.quantaloid is not self.codomain.objects.quantaloid:
            raise ShapeMismatchError("domain and codomain live over different quantaloids")
        if type(self.assignment) is not tuple:
            object.__setattr__(self, "assignment", tuple(self.assignment))
        if len(self.assignment) != len(self.domain):
            raise ShapeMismatchError("assignment must cover every domain object")
        for target in self.assignment:
            if target not in self.codomain.names:
                raise ShapeMismatchError(f"{target!r} is not an object of the codomain")

    @classmethod
    def from_dict(
        cls, domain: QCategory, codomain: QCategory, mapping: dict[str, str]
    ) -> "QFunctor":
        try:
            assignment = tuple(mapping[name] for name in domain.names)
        except KeyError as exc:
            raise ShapeMismatchError(f"mapping misses domain object {exc}") from exc
        return cls(domain, codomain, assignment)

    def __call__(self, name: str) -> str:
        return self.assignment[self.domain.objects.index(name)]

    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.domain.names, self.assignment))


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
    dom, cod = f.domain, f.codomain
    type_witness = None
    for i, name in enumerate(dom.names):
        if dom.objects.types[i] != cod.type_payload(f.assignment[i]):
            type_witness = name
            break
    hom_witness = None
    if type_witness is None:
        n = len(dom)
        cod_index = [cod.objects.index(t) for t in f.assignment]
        for i in range(n):
            for j in range(n):
                if not dq.leq(
                    dom.hom.entries[i][j],
                    cod.hom.entries[cod_index[i]][cod_index[j]],
                ):
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
    dom, cod = f.domain, f.codomain
    cod_index = [cod.objects.index(t) for t in f.assignment]
    dom_hom, cod_hom = dom.hom.entries, cod.hom.entries
    n = len(dom)
    return all(
        dom_hom[i][j] == cod_hom[cod_index[i]][cod_index[j]]
        for i in range(n)
        for j in range(n)
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
    dom, cod = f.domain, f.codomain
    cod_index = [cod.objects.index(t) for t in f.assignment]
    entries = tuple(
        tuple(cod.hom.entries[cod_index[i]][j] for j in range(len(cod)))
        for i in range(len(dom))
    )
    return QRelation(dom.objects, cod.objects, entries)


def cograph(f: QFunctor) -> QRelation:
    """The relation Y -> X with entries hom_Y(y, fx)."""
    dom, cod = f.domain, f.codomain
    cod_index = [cod.objects.index(t) for t in f.assignment]
    entries = tuple(
        tuple(cod.hom.entries[j][cod_index[i]] for i in range(len(dom)))
        for j in range(len(cod))
    )
    return QRelation(cod.objects, dom.objects, entries)


# -- presheaves -------------------------------------------------------------


def _distributor_holds(c: QCategory, q, values: Sequence) -> bool:
    """values . hom <= values, the one-sided distributor law for a column."""
    dq = c.quantaloid
    types = c.objects.types
    hom = c.hom.entries
    n = len(types)
    for i in range(n):
        composed = dq.hom_join(
            types[i],
            q,
            (dq.compose(hom[i][j], types[j], values[j]) for j in range(n)),
        )
        if not dq.leq(composed, values[i]):
            return False
    return True


@dataclass(frozen=True)
class Presheaf:
    """A distributor column into the one-object category of type q."""

    base: QCategory
    q: Any
    values: tuple

    def __post_init__(self):
        if type(self.values) is not tuple:
            object.__setattr__(self, "values", tuple(self.values))
        dq = self.base.quantaloid
        if not dq.is_object(self.q):
            raise PreconditionError(
                f"presheaf type {dq.format(self.q)} is not fixed by the involution"
            )
        if len(self.values) != len(self.base):
            raise ShapeMismatchError("presheaf must assign a value to every object")
        for i, u in enumerate(self.values):
            if not dq.is_hom(self.base.objects.types[i], self.q, u):
                raise PreconditionError(
                    f"presheaf value at {self.base.names[i]!r} is not a diagonal"
                    f" {dq.format(self.base.objects.types[i])} -> {dq.format(self.q)}"
                )
        if not _distributor_holds(self.base, self.q, self.values):
            raise PreconditionError("column violates the distributor law")

    def at(self, name: str):
        return self.values[self.base.objects.index(name)]

    def as_relation(self, name: str = "*") -> QRelation:
        dq = self.base.quantaloid
        target = single_set(dq, self.q, name)
        entries = tuple((u,) for u in self.values)
        return QRelation(self.base.objects, target, entries)

    def to_dict(self) -> dict:
        fmt = self.base.quantaloid.format
        return {
            "type": fmt(self.q),
            "values": {name: fmt(u) for name, u in zip(self.base.names, self.values)},
        }


def enumerate_presheaves(c: QCategory) -> list[Presheaf]:
    """All presheaves, types in element load order, values lexicographic."""
    dq = c.quantaloid
    result = []
    types = c.objects.types
    for q in dq.objects():
        domains = [dq.hom(t, q) for t in types]
        for values in itertools.product(*domains):
            if _distributor_holds(c, q, values):
                result.append(Presheaf(c, q, tuple(values)))
    return result


def presheaf_hom(mu: Presheaf, nu: Presheaf):
    """The hom from mu to nu in the presheaf category: the value of nu <swarrow> mu."""
    if mu.base != nu.base:
        raise ShapeMismatchError("presheaves live on different categories")
    dq = mu.base.quantaloid
    types = mu.base.objects.types
    return dq.hom_meet(
        mu.q,
        nu.q,
        (
            dq.limpl(mu.q, nu.q, mu.values[i], nu.values[i])
            for i in range(len(types))
        ),
    )


def yoneda(c: QCategory, x: str) -> Presheaf:
    """The column hom(-, x) as a presheaf of type |x|."""
    j = c.objects.index(x)
    values = tuple(c.hom.entries[i][j] for i in range(len(c)))
    return Presheaf(c, c.objects.types[j], values)
