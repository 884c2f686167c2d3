"""Partial metric spaces with exact rational arithmetic.

A partial metric allows non-zero self-distances subject to

    alpha(x,x) max alpha(y,y) <= alpha(x,y)
    alpha(x,y) = alpha(y,x)
    alpha(x,z) <= alpha(x,y) - alpha(y,y) + alpha(y,z)

with the truncated-difference conventions of the rational layer.  Radius
functions mu: X -> [r, inf] with alpha(x,x) <= mu(x) play the role of ball
systems; the tight ones satisfy the fixed-point equation

    mu(x) = r max alpha(x,x) max sup_y(alpha(x,y) + r - mu(y))

and carry the distance

    sigma(mu, lam) = r max s max sup_x(lam(x) + r - mu(x)).

All sups are taken in the standard numeric order.  No floating point is
used anywhere in this module.

Witness typing: the ball-family check follows the lax reading by default
(no constraint on the witness's self-distance); ``strict=True`` requires
the witness's self-distance to equal the family's base radius, matching
the default semantics of the finite-quantale hull engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .categories import QCategory
from .diagonals import diagonal_quantaloid
from .errors import InvariantError, PreconditionError, SchemaError, ShapeMismatchError
from .quantale import LAWVERE
from .rationals import ExtRat, from_scaled, integer_rows
from .relations import QRelation, TypedSet

__all__ = [
    "ParMetSpace",
    "RadiusFunction",
    "ParMetReport",
    "FamilyCheckResult",
    "validate_partial_metric",
    "require_valid_space",
    "hyperconvex_family_check",
    "ambient_violation",
    "tight_member",
    "tight_violation",
    "tighten_sweep",
    "sigma",
    "dense_isometry_check",
    "to_category",
]


@dataclass(frozen=True)
class ParMetSpace:
    """Named points with a square matrix of extended rationals."""

    points: tuple[str, ...]
    alpha: tuple[tuple[ExtRat, ...], ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise SchemaError("point names must be unique")
        if len(self.alpha) != len(self.points):
            raise SchemaError("alpha must have one row per point")
        for row in self.alpha:
            if len(row) != len(self.points):
                raise SchemaError("alpha must be square")
            for cell in row:
                if not isinstance(cell, ExtRat):
                    raise SchemaError(f"alpha entries must be ExtRat, got {cell!r}")

    def __len__(self) -> int:
        return len(self.points)

    def index(self, name: str) -> int:
        try:
            return self.points.index(name)
        except ValueError:
            raise SchemaError(f"unknown point {name!r}") from None


@dataclass(frozen=True)
class RadiusFunction:
    """A type radius r and one value per point, aligned with the space."""

    r: ExtRat
    values: tuple[ExtRat, ...]

    def to_dict(self, space: ParMetSpace) -> dict:
        return {
            "r": str(self.r),
            "values": {p: str(v) for p, v in zip(space.points, self.values)},
        }


@dataclass(frozen=True)
class ParMetReport:
    self_bound: bool
    self_bound_witness: tuple[str, str] | None
    symmetric: bool
    symmetric_witness: tuple[str, str] | None
    triangle: bool
    triangle_witness: tuple[str, str, str] | None

    @property
    def valid(self) -> bool:
        return self.self_bound and self.symmetric and self.triangle

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "self_bound": self.self_bound,
            "self_bound_witness": list(self.self_bound_witness) if self.self_bound_witness else None,
            "symmetric": self.symmetric,
            "symmetric_witness": list(self.symmetric_witness) if self.symmetric_witness else None,
            "triangle": self.triangle,
            "triangle_witness": list(self.triangle_witness) if self.triangle_witness else None,
        }


_ONE = ExtRat(1)


def _le(x: int | None, y: int | None) -> bool:
    """x <= y on ``integer_rows`` values (None is infinity)."""
    return y is None or (x is not None and x <= y)


def _monus(b: int | None, a: int | None) -> int | None:
    """Truncated difference on ``integer_rows`` values."""
    if a is None:
        return 0
    if b is None:
        return None
    return b - a if b > a else 0


def validate_partial_metric(space: ParMetSpace) -> ParMetReport:
    """Check the three axioms; each witness is the first failure in row order.

    The scans run on ``integer_rows``: integers over a common denominator,
    None for infinity.  With c = alpha(x,y) - alpha(y,y) truncated, the
    triangle bound c + alpha(y,z) is infinite for every z when c is.
    """
    pts = space.points
    a = integer_rows(space.alpha)
    n = len(pts)

    self_witness = None
    for i in range(n):
        for j in range(n):
            if not (_le(a[i][i], a[i][j]) and _le(a[j][j], a[i][j])):
                self_witness = (pts[i], pts[j])
                break
        if self_witness:
            break

    sym_witness = None
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                sym_witness = (pts[i], pts[j])
                break
        if sym_witness:
            break

    tri_witness = None
    for i in range(n):
        row_i = a[i]
        for j in range(n):
            c = _monus(row_i[j], a[j][j])
            if c is None:
                continue
            row_j = a[j]
            for k in range(n):
                ajk = row_j[k]
                if ajk is not None and (row_i[k] is None or row_i[k] > c + ajk):
                    tri_witness = (pts[i], pts[j], pts[k])
                    break
            if tri_witness:
                break
        if tri_witness:
            break

    return ParMetReport(
        self_bound=self_witness is None,
        self_bound_witness=self_witness,
        symmetric=sym_witness is None,
        symmetric_witness=sym_witness,
        triangle=tri_witness is None,
        triangle_witness=tri_witness,
    )


def require_valid_space(space: ParMetSpace) -> None:
    report = validate_partial_metric(space)
    if not report.valid:
        raise PreconditionError(f"not a partial metric: {report.to_dict()}")


# -- radius functions ---------------------------------------------------------


def _require_well_typed(space: ParMetSpace, mu: RadiusFunction) -> None:
    if len(mu.values) != len(space):
        raise ShapeMismatchError("radius function must cover every point")
    for i, v in enumerate(mu.values):
        if not (mu.r <= v and space.alpha[i][i] <= v):
            raise PreconditionError(
                f"value at {space.points[i]!r} must be at least"
                f" max(r, self-distance); got {v}"
            )


def _integers(space: ParMetSpace, mu: RadiusFunction):
    """alpha, r and mu's values as ``integer_rows`` over one common
    denominator, which is returned last (it is the image of 1)."""
    *a, (r, *values), (one,) = integer_rows(space.alpha + ((mu.r, *mu.values), (_ONE,)))
    return a, r, values, one


def _max(x: int | None, y: int | None) -> int | None:
    """max on ``integer_rows`` values (None is infinity)."""
    return None if x is None or y is None else max(x, y)


def _sup_term(row: list, r: int | None, values: list, start: int | None, skip: int = -1):
    """start max sup_y (row[y] + r) monus values[y] over y != skip, on
    ``integer_rows`` values; start is at least 0, so no term needs truncating."""
    if start is None:
        return None
    for y, vy in enumerate(values):
        if vy is None or y == skip:
            continue  # (row[y] + r) monus inf = 0
        ay = row[y]
        if ay is None or r is None:
            return None
        term = ay + r - vy
        if term > start:
            start = term
    return start


def ambient_violation(space: ParMetSpace, mu: RadiusFunction) -> tuple[str, str] | None:
    """First pair violating alpha(x,y) <= mu(x) - r + mu(y), or None."""
    _require_well_typed(space, mu)
    a, r, v, _ = _integers(space, mu)
    for i, row in enumerate(a):
        slack = _monus(v[i], r)
        if slack is None:
            continue  # an infinite bound for every y
        for j, vj in enumerate(v):
            if vj is not None and not _le(row[j], slack + vj):
                return (space.points[i], space.points[j])
    return None


def tight_violation(space: ParMetSpace, mu: RadiusFunction) -> str | None:
    """First point where the tight fixed-point equation fails, or None."""
    _require_well_typed(space, mu)
    a, r, v, _ = _integers(space, mu)
    for i, row in enumerate(a):
        if v[i] != _sup_term(row, r, v, _max(r, row[i])):
            return space.points[i]
    return None


def tight_member(space: ParMetSpace, mu: RadiusFunction) -> bool:
    return tight_violation(space, mu) is None


def tighten_sweep(space: ParMetSpace, mu: RadiusFunction) -> RadiusFunction:
    """One in-place sweep in point order toward the tight fixed point.

    The self-term is omitted from the update: with the current value at
    least max(r, self-distance) it is dominated by those two entries.  A
    single sweep lands on a tight function for ambient input; should the
    post-sweep check ever fail, sweeping repeats up to |X|^2 times before
    erroring out.
    """
    violation = ambient_violation(space, mu)
    if violation is not None:
        raise PreconditionError(
            f"input is not ambient: pair {violation} violates the ball condition"
        )
    a, r, old, one = _integers(space, mu)
    values = list(old)
    cap = max(len(space) ** 2, 1)
    for _ in range(cap):
        for z, row in enumerate(a):
            values[z] = _sup_term(row, r, values, _max(r, row[z]), skip=z)
        candidate = RadiusFunction(mu.r, tuple(from_scaled(k, one) for k in values))
        if tight_member(space, candidate):
            if not all(map(_le, values, old)):
                raise InvariantError("tightening must not increase any value")
            return candidate
    raise InvariantError(f"tightening did not reach a fixed point within {cap} sweeps")


def sigma(space: ParMetSpace, mu: RadiusFunction, lam: RadiusFunction) -> ExtRat:
    """The tight-span distance; symmetry is checked on every call."""
    for f in (mu, lam):
        if not tight_member(space, f):
            raise PreconditionError("sigma is only defined between tight functions")
    (r_mu, *v_mu), (r_lam, *v_lam), (one,) = integer_rows(
        ((mu.r, *mu.values), (lam.r, *lam.values), (_ONE,))
    )
    # r_mu max r_lam max sup_x (lam(x) + r_mu) monus mu(x), and the converse
    start = _max(r_mu, r_lam)
    forward = _sup_term(v_lam, r_mu, v_mu, start)
    backward = _sup_term(v_mu, r_lam, v_lam, start)
    if forward != backward:
        raise InvariantError("sigma must be symmetric between tight functions")
    return from_scaled(forward, one)


# -- ball families -------------------------------------------------------------


@dataclass(frozen=True)
class FamilyCheckResult:
    admissible: bool
    violation: tuple | None
    witness: str | None

    def to_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "violation": list(self.violation) if self.violation else None,
            "witness": self.witness,
        }


def hyperconvex_family_check(
    space: ParMetSpace,
    r: ExtRat,
    family: Sequence[tuple[str, ExtRat]],
    strict: bool = False,
) -> FamilyCheckResult:
    """Search a point meeting every ball of an admissible family.

    This checks one family instance; deciding hyperconvexity itself would
    quantify over all families.  The inadmissible cases name the offending
    ball or pair of balls in ``violation``.
    """
    centers = [space.index(name) for name, _ in family]
    radii = [rad for _, rad in family]
    a = space.alpha
    for j, (idx, rad) in enumerate(zip(centers, radii)):
        if not r <= rad:
            return FamilyCheckResult(False, ("radius_below_base", family[j][0]), None)
        if not a[idx][idx] <= rad:
            return FamilyCheckResult(False, ("radius_below_self_distance", family[j][0]), None)
    for j in range(len(family)):
        for k in range(len(family)):
            bound = radii[j].monus(r) + radii[k]
            if not a[centers[j]][centers[k]] <= bound:
                return FamilyCheckResult(
                    False, ("pair", family[j][0], family[k][0]), None
                )
    for z in range(len(space)):
        if strict and a[z][z] != r:
            continue
        if all(a[centers[j]][z] <= radii[j] for j in range(len(family))):
            return FamilyCheckResult(True, None, space.points[z])
    return FamilyCheckResult(True, None, None)


# -- density of isometric maps ---------------------------------------------------


def _require_isometric(
    mapping: dict[str, str], dom: ParMetSpace, cod: ParMetSpace
) -> list[int]:
    extra = set(mapping) - set(dom.points)
    if extra:
        raise SchemaError(f"mapping names unknown points: {sorted(extra)}")
    image = []
    for name in dom.points:
        if name not in mapping:
            raise SchemaError(f"mapping misses point {name!r}")
        image.append(cod.index(mapping[name]))
    for i in range(len(dom)):
        for j in range(len(dom)):
            if cod.alpha[image[i]][image[j]] != dom.alpha[i][j]:
                raise PreconditionError(
                    f"map is not isometric at ({dom.points[i]!r}, {dom.points[j]!r})"
                )
    return image


def dense_isometry_check(
    mapping: dict[str, str], dom: ParMetSpace, cod: ParMetSpace
) -> bool:
    """Evaluate the density identity of an isometric map at every pair.

    beta(y, y') must equal
    beta(y,y) max beta(y',y') max sup_x(beta(fx, y') + beta(y,y) - beta(fx, y)).
    """
    image = _require_isometric(mapping, dom, cod)
    b = integer_rows(cod.alpha)
    # beta(y,y') equals the max of its terms beta(y',y'), beta(y,y) and
    # beta(fx,y') + beta(y,y) - beta(fx,y) iff it bounds every term and one
    # term reaches it; both are tested for a whole row y' at once.  Each row
    # is packed into one int, a field of ``width`` bits per column.  With M
    # the largest finite entry, a finite term lies in [-M, 2M]; reading
    # infinity as top = 3M + 1 puts an infinite one in [2M + 1, 4M + 1].
    # Shifted up by M, every term lies in [0, 5M + 1], below the high bit of
    # a field, so high + bound - term and high + term - bound neither borrow
    # nor carry between fields, and a field keeps its high bit iff
    # term <= bound or term >= bound, respectively.  An infinite beta(y,y')
    # is bounded by 5M + 1 and reached at 3M + 1, by infinite terms only.
    m = len(b)
    big = max((v for row in b for v in row if v is not None), default=0)
    top = 3 * big + 1
    width = (5 * big + 1).bit_length() + 1
    ones = sum(1 << (width * k) for k in range(m))
    high = ones << (width - 1)
    finite = [sum(v << (width * k) for k, v in enumerate(row) if v is not None) for row in b]
    infinite = [sum(1 << (width * k) for k, v in enumerate(row) if v is None) for row in b]
    capped = [f + top * i for f, i in zip(finite, infinite)]
    diag = sum((top if row[y] is None else row[y] + big) << (width * y) for y, row in enumerate(b))
    for y, row_y in enumerate(b):
        byy = row_y[y]
        if byy is None:
            # rhs >= beta(y,y) is infinite for every y'.
            if any(v is not None for v in row_y):
                return False
            continue
        shifted = finite[y] + big * ones
        upper = high + shifted + (4 * big + 1) * infinite[y]
        lower = high - shifted - (2 * big + 1) * infinite[y]
        # The term of fx is 0 (and dropped) when beta(fx,y) is infinite.
        terms = [diag, (byy + big) * ones] + [
            capped[fx] + (byy - b[fx][y] + big) * ones for fx in image if b[fx][y] is not None
        ]
        reached = 0
        for term in terms:
            if (upper - term) & high != high:
                return False
            reached |= lower + term
        if reached & high != high:
            return False
    return True


# -- bridge to the generic calculus ------------------------------------------------


def to_category(space: ParMetSpace) -> QCategory:
    """The same data as a symmetric category over the extended rationals."""
    dq = diagonal_quantaloid(LAWVERE)
    types = tuple(space.alpha[i][i] for i in range(len(space)))
    carrier = TypedSet(dq, space.points, types)
    return QCategory(carrier, QRelation(carrier, carrier, space.alpha))
