"""Typed-set-indexed matrices of diagonal values and their calculus.

A ``TypedSet`` is a finite list of named objects, each carrying a type from
the symmetric objects of a diagonal quantaloid.  A ``QRelation`` from X to Y
stores one diagonal value |x| -> |y| per pair; composition joins through the
middle set, residuation meets across it, and the involution transposes with
entrywise involution.  Matrices are dense, validated eagerly, and immutable;
list inputs are stored as tuples, so that they compare and hash like tuples.

Empty sets are legal throughout; composites over an empty middle set give
the bottom relation, residuals over an empty index give hom-lattice tops.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagonals import DiagonalQuantaloid
from .errors import PreconditionError, ShapeMismatchError

__all__ = [
    "TypedSet",
    "QRelation",
    "single_set",
    "rel_compose",
    "rel_residual",
    "rel_involve",
]


@dataclass(frozen=True)
class TypedSet:
    """Named objects with symmetric-object types (payload values)."""

    quantaloid: DiagonalQuantaloid
    names: tuple[str, ...]
    types: tuple

    def __post_init__(self):
        if type(self.names) is not tuple:
            object.__setattr__(self, "names", tuple(self.names))
        if type(self.types) is not tuple:
            object.__setattr__(self, "types", tuple(self.types))
        if len(self.names) != len(self.types):
            raise ShapeMismatchError("names and types must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ShapeMismatchError("object names must be unique")
        for name, t in zip(self.names, self.types):
            if not self.quantaloid.is_object(t):
                raise PreconditionError(
                    f"type {self.quantaloid.format(t)} of {name!r} is not fixed"
                    " by the involution"
                )

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ShapeMismatchError(f"unknown object {name!r}") from None

    def type_of(self, name: str):
        return self.types[self.index(name)]

    def to_dict(self) -> dict:
        fmt = self.quantaloid.format
        return {"names": list(self.names), "types": [fmt(t) for t in self.types]}


def single_set(quantaloid: DiagonalQuantaloid, type_payload, name: str = "*") -> TypedSet:
    return TypedSet(quantaloid, (name,), (type_payload,))


@dataclass(frozen=True)
class QRelation:
    """A matrix of diagonal values phi(x, y): |x| -> |y|."""

    source: TypedSet
    target: TypedSet
    entries: tuple

    def __post_init__(self):
        if self.source.quantaloid is not self.target.quantaloid:
            raise ShapeMismatchError("source and target live over different quantaloids")
        dq = self.source.quantaloid
        if type(self.entries) is not tuple:
            object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        if len(self.entries) != len(self.source):
            raise ShapeMismatchError(
                f"expected {len(self.source)} rows, got {len(self.entries)}"
            )
        width = len(self.target)
        is_hom = dq.is_hom
        target_types = self.target.types
        for i, (row, s) in enumerate(zip(self.entries, self.source.types)):
            if type(row) is not tuple:
                object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
                return self.__post_init__()
            if len(row) != width:
                raise ShapeMismatchError(
                    f"row {i} has {len(row)} entries, expected {width}"
                )
            for j, (u, t) in enumerate(zip(row, target_types)):
                if not is_hom(s, t, u):
                    raise PreconditionError(
                        f"entry ({self.source.names[i]}, {self.target.names[j]}) ="
                        f" {dq.format(u)} is not a diagonal"
                        f" {dq.format(s)} -> {dq.format(t)}"
                    )

    @property
    def quantaloid(self) -> DiagonalQuantaloid:
        return self.source.quantaloid

    def at(self, x: str, y: str):
        return self.entries[self.source.index(x)][self.target.index(y)]

    def to_dict(self) -> dict:
        fmt = self.quantaloid.format
        return {
            "source": self.source.to_dict(),
            "target": self.target.to_dict(),
            "entries": [[fmt(u) for u in row] for row in self.entries],
        }


def rel_compose(psi: QRelation, phi: QRelation) -> QRelation:
    """(psi . phi)(x, z) = join over y of psi(y, z) . phi(x, y)."""
    if phi.target != psi.source:
        raise ShapeMismatchError("inner target and outer source differ")
    dq = phi.quantaloid
    mid_types = phi.target.types
    entries = tuple(
        tuple(
            dq.hom_join(
                phi.source.types[i],
                psi.target.types[k],
                (
                    dq.compose(phi.entries[i][j], mid_types[j], psi.entries[j][k])
                    for j in range(len(mid_types))
                ),
            )
            for k in range(len(psi.target))
        )
        for i in range(len(phi.source))
    )
    return QRelation(phi.source, psi.target, entries)


def rel_residual(side: str, outer: QRelation, inner: QRelation) -> QRelation:
    """left: (outer <swarrow> inner)(y, z) = meet over x of outer(x, z) <swarrow> inner(x, y)
    for inner: X -> Y, outer: X -> Z.

    right: (inner <searrow> outer)(x, y) = meet over z of inner(y, z) <searrow> outer(x, z)
    for inner: Y -> Z, outer: X -> Z.
    """
    dq = outer.quantaloid
    if side == "left":
        if inner.source != outer.source:
            raise ShapeMismatchError("left residual needs a common source")
        y_set, z_set = inner.target, outer.target
        entries = tuple(
            tuple(
                dq.hom_meet(
                    y_set.types[j],
                    z_set.types[k],
                    (
                        dq.limpl(
                            y_set.types[j],
                            z_set.types[k],
                            inner.entries[i][j],
                            outer.entries[i][k],
                        )
                        for i in range(len(inner.source))
                    ),
                )
                for k in range(len(z_set))
            )
            for j in range(len(y_set))
        )
        return QRelation(y_set, z_set, entries)
    if side == "right":
        if inner.target != outer.target:
            raise ShapeMismatchError("right residual needs a common target")
        x_set, y_set = outer.source, inner.source
        entries = tuple(
            tuple(
                dq.hom_meet(
                    x_set.types[i],
                    y_set.types[j],
                    (
                        dq.rimpl(
                            x_set.types[i],
                            y_set.types[j],
                            inner.entries[j][k],
                            outer.entries[i][k],
                        )
                        for k in range(len(inner.target))
                    ),
                )
                for j in range(len(y_set))
            )
            for i in range(len(x_set))
        )
        return QRelation(x_set, y_set, entries)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def rel_involve(phi: QRelation) -> QRelation:
    dq = phi.quantaloid
    entries = tuple(
        tuple(dq.involve(phi.entries[i][j]) for i in range(len(phi.source)))
        for j in range(len(phi.target))
    )
    return QRelation(phi.target, phi.source, entries)
