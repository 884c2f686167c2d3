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

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .categories import QCategory
from .diagonals import diagonal_quantaloid
from .errors import InvariantError, PreconditionError, SchemaError, ShapeMismatchError
from .quantale import LAWVERE
from .rationals import ZERO, ExtRat, integer_rows
from .relations import QRelation, TypedSet

__all__ = [
    "ParMetSpace",
    "RadiusFunction",
    "ParMetReport",
    "FamilyCheckResult",
    "validate_partial_metric",
    "is_matthews",
    "hyperconvex_family_check",
    "ambient_violation",
    "is_ambient_function",
    "tight_member",
    "tight_violation",
    "tighten_sweep",
    "sigma",
    "dense_isometry_check",
    "classical_tight_check",
    "classical_sigma_check",
    "sample_ambient",
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


def is_matthews(space: ParMetSpace) -> bool:
    """The original axioms: finite distances and separation on top."""
    if not validate_partial_metric(space).valid:
        return False
    a = space.alpha
    n = len(space)
    for i in range(n):
        for j in range(n):
            if a[i][j].is_infinite:
                return False
            if i != j and a[i][i] == a[j][j] == a[i][j]:
                return False
    return True


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


def ambient_violation(space: ParMetSpace, mu: RadiusFunction) -> tuple[str, str] | None:
    """First pair violating alpha(x,y) <= mu(x) - r + mu(y), or None."""
    _require_well_typed(space, mu)
    a = space.alpha
    n = len(space)
    for i in range(n):
        for j in range(n):
            if not a[i][j] <= mu.values[i].monus(mu.r) + mu.values[j]:
                return (space.points[i], space.points[j])
    return None


def is_ambient_function(space: ParMetSpace, mu: RadiusFunction) -> bool:
    return ambient_violation(space, mu) is None


def tight_violation(space: ParMetSpace, mu: RadiusFunction) -> str | None:
    """First point where the tight fixed-point equation fails, or None."""
    _require_well_typed(space, mu)
    a = space.alpha
    n = len(space)
    for i in range(n):
        rhs = max(mu.r, a[i][i])
        for j in range(n):
            term = (a[i][j] + mu.r).monus(mu.values[j])
            if term > rhs:
                rhs = term
        if mu.values[i] != rhs:
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
    a = space.alpha
    n = len(space)
    r = mu.r
    values = list(mu.values)
    cap = max(n * n, 1)
    for _ in range(cap):
        for z in range(n):
            new = max(r, a[z][z])
            for y in range(n):
                if y == z:
                    continue
                term = (a[z][y] + r).monus(values[y])
                if term > new:
                    new = term
            values[z] = new
        candidate = RadiusFunction(r, tuple(values))
        if tight_member(space, candidate):
            if any(new > old for old, new in zip(mu.values, candidate.values)):
                raise InvariantError("tightening must not increase any value")
            return candidate
    raise InvariantError(f"tightening did not reach a fixed point within {cap} sweeps")


def sigma(space: ParMetSpace, mu: RadiusFunction, lam: RadiusFunction) -> ExtRat:
    """The tight-span distance; symmetry is checked on every call."""
    for f in (mu, lam):
        if not tight_member(space, f):
            raise PreconditionError("sigma is only defined between tight functions")

    def one_way(first: RadiusFunction, second: RadiusFunction) -> ExtRat:
        result = max(first.r, second.r)
        for i in range(len(space)):
            term = (second.values[i] + first.r).monus(first.values[i])
            if term > result:
                result = term
        return result

    forward = one_way(mu, lam)
    backward = one_way(lam, mu)
    if forward != backward:
        raise InvariantError("sigma must be symmetric between tight functions")
    return forward


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
    m = len(cod)
    for y in range(m):
        byy = b[y][y]
        if byy is None:
            # rhs >= beta(y,y) is infinite for every y'.
            if any(v is not None for v in b[y]):
                return False
            continue
        # term = beta(fx,y') + (beta(y,y) - beta(fx,y)), truncated at 0; it
        # is 0 when beta(fx,y) is infinite and infinite when beta(fx,y') is.
        shifts = [(b[fx], byy - b[fx][y]) for fx in image if b[fx][y] is not None]
        for y2 in range(m):
            rhs = b[y2][y2]
            if rhs is not None:
                rhs = max(rhs, byy)
                for row, shift in shifts:
                    if row[y2] is None:
                        rhs = None
                        break
                    rhs = max(rhs, row[y2] + shift)
            if b[y][y2] != rhs:
                return False
    return True


# -- classical reduction -----------------------------------------------------------


def _signed(a: ExtRat, b: ExtRat) -> tuple:
    """a - b as a (rank, value) pair whose tuple order is the extended order:
    rank 0 is -inf, 1 finite, 2 +inf.  inf - inf is 0 to match the monus."""
    if b.is_infinite:
        return (1, 0) if a.is_infinite else (0, 0)
    if a.is_infinite:
        return (2, 0)
    return (1, a.fraction - b.fraction)


def _require_classical(space: ParMetSpace, mu: RadiusFunction) -> None:
    for i in range(len(space)):
        if space.alpha[i][i] != ZERO:
            raise PreconditionError("classical checks need a zero diagonal")
    if mu.r != ZERO:
        raise PreconditionError("classical checks need base radius 0")


def classical_tight_check(space: ParMetSpace, mu: RadiusFunction) -> bool:
    """The untruncated fixed-point equation mu(x) = sup_y(alpha(x,y) - mu(y)).

    Because the self term alpha(x,x) - mu(x) pins the raw supremum at or
    above -mu(x), the raw and truncated readings agree; this is checked on
    every call.
    """
    _require_classical(space, mu)
    _require_well_typed(space, mu)
    a = space.alpha
    n = len(space)
    raw_ok = all(
        max(_signed(a[i][j], mu.values[j]) for j in range(n))
        == _signed(mu.values[i], ZERO)
        for i in range(n)
    )
    truncated_ok = tight_member(space, mu)
    if raw_ok != truncated_ok:
        raise InvariantError(
            "raw and truncated tight equations must agree on classical metrics"
        )
    return raw_ok


def classical_sigma_check(
    space: ParMetSpace, mu: RadiusFunction, lam: RadiusFunction
) -> bool:
    """sup(mu - lam) = sup(lam - mu) = sigma >= 0 for classical tight pairs."""
    _require_classical(space, mu)
    _require_classical(space, lam)
    value = sigma(space, mu, lam)
    if len(space) == 0:
        return value == ZERO
    forward = max(_signed(x, y) for x, y in zip(mu.values, lam.values))
    backward = max(_signed(y, x) for x, y in zip(mu.values, lam.values))
    # Matching sigma, an ExtRat, also makes the supremum non-negative.
    return forward == backward == _signed(value, ZERO)


# -- generators --------------------------------------------------------------------


def sample_ambient(space: ParMetSpace, r: ExtRat, seed: int) -> RadiusFunction:
    """A reproducible ambient function: row maxima plus bounded rational slack."""
    require_valid_space(space)
    rng = random.Random(seed)
    values = []
    for i in range(len(space)):
        base = r
        for j in range(len(space)):
            if space.alpha[i][j] > base:
                base = space.alpha[i][j]
        slack = ExtRat(Fraction(rng.randint(0, 8), rng.choice((1, 2, 3, 4))))
        values.append(base + slack)
    mu = RadiusFunction(r, tuple(values))
    if not is_ambient_function(space, mu):
        raise InvariantError("generator must produce ambient output")
    return mu


# -- bridge to the generic calculus ------------------------------------------------


def to_category(space: ParMetSpace) -> QCategory:
    """The same data as a symmetric category over the extended rationals."""
    dq = diagonal_quantaloid(LAWVERE)
    types = tuple(space.alpha[i][i] for i in range(len(space)))
    carrier = TypedSet(dq, space.points, types)
    return QCategory(carrier, QRelation(carrier, carrier, space.alpha))
