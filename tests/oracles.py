"""Test-side references: code the library does not ship.

The CLI, the suites and the benchmark reach none of these.  The tests keep
them as independent oracles for library code (``check_adjunction`` for the
graph calculus, ``tighten`` and ``extension_from_presheaf`` for the tight
columns and one-point retractions, the classical checks for
``tighten_sweep`` and ``sigma``) and to build inputs.  The quantale
constructors pin the shipped tables in ``src/enritch/data``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from enritch.categories import (
    Presheaf,
    QCategory,
    QFunctor,
    cograph,
    graph,
    is_symmetric,
    presheaf_hom,
    require_valid,
    validate_category,
    yoneda,
)
from enritch.diagonals import DiagonalQuantaloid
from enritch.errors import InvariantError, PreconditionError, ShapeMismatchError
from enritch.hull import (
    _chain_bound,
    _extend_matrix,
    _fresh_name,
    _tight_residual,
    is_ambient,
)
from enritch.parmet import (
    ParMetSpace,
    RadiusFunction,
    _require_well_typed,
    ambient_violation,
    require_valid_space,
    sigma,
    tight_member,
)
from enritch.quantale import FiniteQuantale
from enritch.rationals import ZERO, ExtRat
from enritch.relations import QRelation, TypedSet, rel_compose, rel_involve, single_set


# -- quantales -----------------------------------------------------------------


def _chain_cells(values: list[Fraction], op) -> list[list[str]]:
    return [[str(op(a, b)) for b in values] for a in values]


def boolean_quantale() -> FiniteQuantale:
    """The two-element chain with meet as tensor."""
    return FiniteQuantale(
        elements=["0", "1"],
        leq_table=[[True, True], [False, True]],
        tensor_table=[["0", "0"], ["0", "1"]],
        unit="1",
        involution_table=["0", "1"],
        name="boolean",
    )


def lukasiewicz_chain(n: int) -> FiniteQuantale:
    """The n-element chain 0, 1/(n-1), ..., 1 with a*b = max(0, a+b-1)."""
    if n < 2:
        raise ValueError("a Lukasiewicz chain needs at least 2 elements")
    values = [Fraction(k, n - 1) for k in range(n)]
    names = [str(v) for v in values]
    return FiniteQuantale(
        elements=names,
        leq_table=[[a <= b for b in values] for a in values],
        tensor_table=_chain_cells(values, lambda a, b: max(Fraction(0), a + b - 1)),
        unit="1",
        involution_table=names,
        name=f"lukasiewicz{n}",
    )


def nilpotent_minimum_chain(n: int) -> FiniteQuantale:
    """The n-element chain with a*b = 0 if a+b <= 1 else min(a, b)."""
    if n < 2:
        raise ValueError("a nilpotent-minimum chain needs at least 2 elements")
    values = [Fraction(k, n - 1) for k in range(n)]
    names = [str(v) for v in values]

    def nilmin(a: Fraction, b: Fraction) -> Fraction:
        return Fraction(0) if a + b <= 1 else min(a, b)

    return FiniteQuantale(
        elements=names,
        leq_table=[[a <= b for b in values] for a in values],
        tensor_table=_chain_cells(values, nilmin),
        unit="1",
        involution_table=names,
        name=f"nilmin{n}",
    )


def diamond_frame() -> FiniteQuantale:
    """The four-element frame {bot, a, b, top} with a, b incomparable."""
    elements = ["bot", "a", "b", "top"]
    order = {
        ("bot", "bot"), ("bot", "a"), ("bot", "b"), ("bot", "top"),
        ("a", "a"), ("a", "top"), ("b", "b"), ("b", "top"), ("top", "top"),
    }
    leq_table = [[(x, y) in order for y in elements] for x in elements]

    def frame_meet(x: str, y: str) -> str:
        if (x, y) in order:
            return x
        if (y, x) in order:
            return y
        return "bot"

    return FiniteQuantale(
        elements=elements,
        leq_table=leq_table,
        tensor_table=[[frame_meet(x, y) for y in elements] for x in elements],
        unit="top",
        involution_table=elements,
        name="diamond",
    )


def reference_is_divisible(q: FiniteQuantale) -> bool:
    """u <= v implies (u/v) (x) v = u = v (x) (v\\u), tested exhaustively."""
    for v in q.payloads():
        for u in q.payloads():
            if not q.leq_table[u][v]:
                continue
            if (
                q._tensor(q._residual_left(u, v), v) != u
                or q._tensor(v, q._residual_right(v, u)) != u
            ):
                return False
    return True


# -- relations -----------------------------------------------------------------


def _require_parallel(phi: QRelation, psi: QRelation) -> None:
    if phi.source != psi.source or phi.target != psi.target:
        raise ShapeMismatchError("relations are not parallel")


def rel_identity(x: TypedSet) -> QRelation:
    dq = x.quantaloid
    entries = tuple(
        tuple(
            dq.identity(x.types[i]) if i == j else dq.hom_bottom(x.types[i], x.types[j])
            for j in range(len(x))
        )
        for i in range(len(x))
    )
    return QRelation(x, x, entries)


def rel_leq(phi: QRelation, psi: QRelation) -> bool:
    _require_parallel(phi, psi)
    dq = phi.quantaloid
    return all(
        dq.leq(phi.entries[i][j], psi.entries[i][j])
        for i in range(len(phi.source))
        for j in range(len(phi.target))
    )


def rel_join(relations: Sequence[QRelation]) -> QRelation:
    if not relations:
        raise ShapeMismatchError("an empty join of relations has no shape")
    first = relations[0]
    for other in relations[1:]:
        _require_parallel(first, other)
    dq = first.quantaloid
    entries = tuple(
        tuple(
            dq.hom_join(
                first.source.types[i],
                first.target.types[j],
                (rel.entries[i][j] for rel in relations),
            )
            for j in range(len(first.target))
        )
        for i in range(len(first.source))
    )
    return QRelation(first.source, first.target, entries)


def rel_meet(relations: Sequence[QRelation]) -> QRelation:
    if not relations:
        raise ShapeMismatchError("an empty meet of relations has no shape")
    first = relations[0]
    for other in relations[1:]:
        _require_parallel(first, other)
    dq = first.quantaloid
    entries = tuple(
        tuple(
            dq.hom_meet(
                first.source.types[i],
                first.target.types[j],
                (rel.entries[i][j] for rel in relations),
            )
            for j in range(len(first.target))
        )
        for i in range(len(first.source))
    )
    return QRelation(first.source, first.target, entries)


def bottom_relation(x: TypedSet, y: TypedSet) -> QRelation:
    dq = x.quantaloid
    entries = tuple(
        tuple(dq.hom_bottom(x.types[i], y.types[j]) for j in range(len(y)))
        for i in range(len(x))
    )
    return QRelation(x, y, entries)


# -- categories ----------------------------------------------------------------


def one_object_category(dq: DiagonalQuantaloid, type_payload, name: str = "*") -> QCategory:
    carrier = single_set(dq, type_payload, name)
    return QCategory(carrier, rel_identity(carrier))


def symmetrize(c: QCategory) -> QCategory:
    """Meet the hom with its involution transpose; the result is again valid."""
    require_valid(c)
    sym = QCategory(c.objects, rel_meet([c.hom, rel_involve(c.hom)]))
    report = validate_category(sym)
    if not report.valid:
        raise InvariantError(f"symmetrization broke the category laws: {report.to_dict()}")
    return sym


def check_adjunction(f: QFunctor) -> bool:
    """hom_X <= cograph . graph and graph . cograph <= hom_Y."""
    lower = rel_leq(f.domain.hom, rel_compose(cograph(f), graph(f)))
    upper = rel_leq(rel_compose(graph(f), cograph(f)), f.codomain.hom)
    return lower and upper


def copresheaf_values(mu: Presheaf) -> tuple:
    """The involution of a presheaf column on a symmetric base: a copresheaf
    (hom . values <= values entrywise), which is checked on every call."""
    if not is_symmetric(mu.base):
        raise PreconditionError("copresheaf values need a symmetric base category")
    dq = mu.base.quantaloid
    values = tuple(dq.involve(u) for u in mu.values)
    types = mu.base.objects.types
    hom = mu.base.hom.entries
    n = len(types)
    for z in range(n):
        composed = dq.hom_join(
            mu.q,
            types[z],
            (dq.compose(values[x], types[x], hom[x][z]) for x in range(n)),
        )
        if not dq.leq(composed, values[z]):
            raise InvariantError(
                "the involuted column of a presheaf on a symmetric base must be a copresheaf"
            )
    return values


def yoneda_lemma_holds(c: QCategory, mu: Presheaf) -> bool:
    """hom_P(yoneda(x), mu) must equal mu(x) for every object x."""
    return all(
        presheaf_hom(yoneda(c, x), mu) == mu.values[i]
        for i, x in enumerate(c.names)
    )


# -- hull ----------------------------------------------------------------------


def tighten(c: QCategory, mu: Presheaf) -> Presheaf:
    """A maximal (tight) presheaf above an ambient one.

    Repeatedly finds the first object z where the tight equation fails and
    joins in the augmentation column through z; each step strictly increases
    the presheaf, so the loop terminates on finite quantales.
    """
    if not is_ambient(c, mu):
        raise PreconditionError("tighten needs an ambient presheaf")
    dq = c.quantaloid
    types = c.objects.types
    hom = c.hom.entries
    n = len(types)
    q = mu.q
    values = tuple(mu.values)
    for _ in range(_chain_bound(c, q)):
        residual = _tight_residual(c, q, values)
        stale = None
        for z in range(n):
            if dq.involve(values[z]) != residual[z]:
                stale = z
                break
        if stale is None:
            result = Presheaf(c, q, values)
            if not is_ambient(c, result):
                raise InvariantError("tightening left the ambient set")
            return result
        z = stale
        # Augmentation through z: join mu with (mu deg <searrow> hom(z, -)) . hom(-, z).
        bound = dq.hom_meet(
            types[z],
            q,
            (
                dq.rimpl(types[z], q, dq.involve(values[w]), hom[z][w])
                for w in range(n)
            ),
        )
        new_values = tuple(
            dq.hom_join(
                types[x],
                q,
                (values[x], dq.compose(hom[x][z], types[z], bound)),
            )
            for x in range(n)
        )
        if new_values == values or not all(
            dq.leq(values[x], new_values[x]) for x in range(n)
        ):
            raise InvariantError("augmentation must strictly increase the presheaf")
        values = new_values
    raise InvariantError("tightening failed to converge within its step bound")


def extension_from_presheaf(c: QCategory, mu: Presheaf) -> QCategory:
    """The one-point extension whose new column is an ambient presheaf."""
    if not is_ambient(c, mu):
        raise PreconditionError("the extension column must be ambient")
    extended = _extend_matrix(c, mu.q, mu.values, _fresh_name(c))
    report = validate_category(extended)
    if not report.valid:
        raise InvariantError(
            f"an ambient presheaf must induce a valid extension: {report.to_dict()}"
        )
    if not is_symmetric(extended):
        raise InvariantError("an ambient presheaf must induce a symmetric extension")
    return extended


# -- partial metrics -----------------------------------------------------------


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
    if ambient_violation(space, mu) is not None:
        raise InvariantError("generator must produce ambient output")
    return mu
