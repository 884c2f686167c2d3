"""Test-side references: code the library does not ship.

The CLI, the suites and the benchmark reach none of these.  The tests keep
them as independent oracles for library code (``check_adjunction`` for the
graph calculus, ``table_tight_columns`` and ``row_tight_columns`` (on
``row_tables``) for the tight-column search,
``tighten`` and ``extension_from_presheaf`` for the tight columns and
one-point retractions, the classical checks for
``tighten_sweep`` and ``sigma``, ``FractionExtRat`` for the int-pair
``ExtRat``, ``LawvereReference`` for the extended-rational kernel's closed
forms, the ``cell_*`` loops, ``presheaf_hom``, ``_tight_residual`` and
``presheaf_hom_matrix`` for the kernel's matrix scans,
``run_suite_per_category`` and ``run_t54_per_functor`` for the suites'
per-class verdicts, ``t44_single_checked_twice`` for ``t44``'s verdict,
``reference_functor_search`` and ``reference_all_functors`` for the pruned
functor search,
``functor_compose`` for the composites of the essentiality brute force,
``essential_over_one_more_point`` (on ``one_more_point_receivers``) for its
walk over receivers of at most |codomain| points,
``underlying_order`` for the iso classes ``extend_along`` reads from the
hom,
``marked_signature`` for the marked canonical signature,
``raw_symmetric_categories`` for the enumeration by one-point extension
and the essentiality receivers, ``validated_extensions`` for the
one-point extensions, ``Presheaf``, ``yoneda`` and ``presheaves`` for the
(q, values) pairs the library holds, ``ambient_presheaves`` for
``enumerate_ambient``, ``all_pairs_maximal`` for ``t44``'s maximality
check, ``per_member_restriction`` for ``tight_span_restriction``'s one
residual call, ``fraction_parse`` for the literal fast path of
``ExtRat.parse``, the ``extrat_*`` loops for the integer-row scans of
``ambient_violation``, ``tight_violation``, ``tighten_sweep`` and
``sigma``) and to build inputs.  The quantale constructors pin the shipped tables in
``src/enritch/data``, through ``quantale_document``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from enritch.categories import (
    QCategory,
    QFunctor,
    _distributor_holds,
    _mark_symmetric,
    cograph,
    enumerate_presheaves,
    graph,
    is_symmetric,
    require_valid,
    validate_category,
    validate_functor,
)
from enritch.diagonals import DiagonalQuantaloid, diagonal_quantaloid
from enritch.errors import InvariantError, PreconditionError, SchemaError, ShapeMismatchError
from enritch.hull import (
    EssentialResult,
    _canonical_signature,
    _chain_bound,
    _extend_matrix,
    _fresh_name,
    _functor_search,
    _of_type,
    column_admissible,
    enumerate_symmetric_categories,
    is_codense,
    is_dense,
    is_fully_faithful,
    is_tight_column,
    tight_span,
    tight_span_restriction,
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
from enritch.rationals import (
    _TOO_LONG,
    INF,
    ZERO,
    ExtRat,
    _bounded_exponent,
    _pair,
    _too_long,
)
from enritch.relations import QRelation, TypedSet, rel_compose, rel_involve
from enritch.verify import _l43_single, _maximal_in_ambient, _t36_single, _t44_single, _t54_single


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


def quantale_document(q: FiniteQuantale) -> dict:
    """The JSON document ``fileio.load_quantale`` reads back as ``q``."""
    return {
        "elements": list(q.elements),
        "leq": [list(row) for row in q.leq_table],
        "tensor": [[q.elements[c] for c in row] for row in q.tensor_table],
        "unit": q.elements[q.unit],
        "involution": [q.elements[c] for c in q.involution_table],
    }


class LawvereReference:
    """The extended rationals' quantale ops, written out one by one: [0, inf]
    with addition, unit 0, reverse numeric order, trivial involution.

    The library realizes them only as the closed forms of
    ``diagonals.LawvereDiagonals``; these are the reference those closed
    forms are checked against.
    """

    name = "lawvere"

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


LAWVERE_REFERENCE = LawvereReference()


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


def single_set(quantaloid: DiagonalQuantaloid, type_payload, name: str = "*") -> TypedSet:
    return TypedSet(quantaloid, (name,), (type_payload,))


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


def underlying_order(c: QCategory) -> UnderlyingOrder:
    """x <= y iff the types agree and hom(x, y) is the identity on that type;
    the iso classes are grown greedily, in name order."""
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


def isomorphic(order: UnderlyingOrder, a: str, b: str) -> bool:
    return order.class_index(a) == order.class_index(b)


@dataclass(frozen=True)
class Presheaf:
    """A distributor column into the one-object category of type q, checked
    on construction: the validating reference for the (q, values) pairs the
    library holds."""

    base: QCategory
    q: object
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

    @property
    def pair(self) -> tuple:
        """The (q, values) form the library holds."""
        return self.q, self.values

    def to_dict(self) -> dict:
        fmt = self.base.quantaloid.format
        return {
            "type": fmt(self.q),
            "values": {name: fmt(u) for name, u in zip(self.base.names, self.values)},
        }


def yoneda(c: QCategory, x: str) -> Presheaf:
    """The column hom(-, x) as a presheaf of type |x|."""
    j = c.objects.index(x)
    values = tuple(c.hom.entries[i][j] for i in range(len(c)))
    return Presheaf(c, c.objects.types[j], values)


def presheaves(c: QCategory) -> list[Presheaf]:
    """Every pair of ``enumerate_presheaves``, validated as a ``Presheaf``."""
    return [Presheaf(c, q, values) for q, values in enumerate_presheaves(c)]


def presheaf_relation(mu: Presheaf, name: str = "*") -> QRelation:
    dq = mu.base.quantaloid
    target = single_set(dq, mu.q, name)
    entries = tuple((u,) for u in mu.values)
    return QRelation(mu.base.objects, target, entries)


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


def cell_transitivity_witness(c: QCategory) -> tuple | None:
    """The per-cell transitivity loop that ``validate_category`` ran before
    the kernel's ``transitivity_witness`` (oracle): the first (i, j, k) with
    hom(j, k) . hom(i, j) not below hom(i, k), as indices."""
    dq = c.quantaloid
    types = c.objects.types
    hom = c.hom.entries
    n = len(types)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                via = dq.compose(hom[i][j], types[j], hom[j][k])
                if not dq.leq(via, hom[i][k]):
                    return i, j, k
    return None


def cell_distributor_holds(c: QCategory, q, values: Sequence) -> bool:
    """The per-cell distributor loop that ``categories._distributor_holds``
    ran before the kernel's ``distributor_holds`` (oracle)."""
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


def _tight_residual(c: QCategory, q, values: Sequence) -> tuple:
    """The column z |-> (hom <swarrow> mu)(z), valued in hom(q, |z|)."""
    dq = c.quantaloid
    types = c.objects.types
    hom = c.hom.entries
    n = len(types)
    return tuple(
        dq.hom_meet(
            q,
            types[z],
            (dq.limpl(q, types[z], values[x], hom[x][z]) for x in range(n)),
        )
        for z in range(n)
    )


def presheaf_hom_matrix(left: Sequence[Presheaf], right: Sequence[Presheaf]) -> tuple:
    """The matrix of ``presheaf_hom`` that ``tight_span`` filled cell by cell
    before the kernel's ``residual_matrix`` (oracle)."""
    return tuple(tuple(presheaf_hom(mu, nu) for nu in right) for mu in left)


def yoneda_lemma_holds(c: QCategory, mu: Presheaf) -> bool:
    """hom_P(yoneda(x), mu) must equal mu(x) for every object x."""
    return all(
        presheaf_hom(yoneda(c, x), mu) == mu.values[i]
        for i, x in enumerate(c.names)
    )


# -- hull ----------------------------------------------------------------------


def row_tables(dq: DiagonalQuantaloid, q) -> tuple:
    """The tables of a search over type-q columns before the kernel coded
    its elements: ``(meet, join, leq, involve, residual, hom_meet)`` with
    ``residual[t][u][w] = limpl(q, t, u, w)`` and ``hom_meet[t][m] =
    hom_meet(q, t, (m,))``, read from the finite kernel's own tables."""
    return (dq._meets, dq._joins, dq._order, dq._involution, dq._limpl[q], dq._hom_meet[q])


def row_tight_columns(c: QCategory, q) -> Iterator[tuple]:
    """The branch-and-propagate search on per-cell table rows that the
    packed search replaced (oracle).  All tight columns of type q, in
    lexicographic hom order.

    A node of the search is an interval [lo, hi] of columns, and it first
    propagates to a fixpoint: hi <- hi meet f(lo), then lo <- lo join f(hi),
    in each hom(|z|, q), with f(mu) = (hom <swarrow> mu) deg.  f is
    antitone, so every tight mu in [lo, hi] has f(hi) <= f(mu) = mu <= f(lo)
    and stays in the narrowed interval.  Both bounds stay diagonals, since
    homs are closed under joins.  A node is pruned when lo(z) is not below
    hi(z) at some z; at a fixpoint with lo = hi it is tight, because there
    mu <= f(mu) <= mu.  Any other node branches on the open coordinate with
    the fewest diagonals between its bounds, one child per diagonal.  The
    root (bottom, top) propagates to the least and greatest fixed points of
    f squared, the alternating fixpoint of Van Gelder (JCSS 1993).

    The residuals hom <swarrow> mu are rows of the kernel's
    ``residual_matrix`` against the Yoneda columns, so f(hi) is one row,
    evaluated afresh.  Raising lo only lowers the residuals, so ``below`` =
    residuals(lo) starts as one row and is kept up to date by meeting in the
    rows of the raised coordinates.  Each round that does not end the
    propagation moves a bound strictly inward, so a node takes at most
    ``_chain_bound`` rounds.  The columns found are sorted.
    """
    dq = c.quantaloid
    types = c.objects.types
    meet, join, leq, involve, limpl, hom_meet = row_tables(dq, q)
    # caps[z][m]: the largest element of hom(q, |z|) below m.
    caps = [hom_meet[t] for t in types]
    # yonedas[z]: |z| and the column hom(-, z); rows[z]: the residuals into
    # |z| and the same column.
    columns = list(zip(*c.hom.entries))
    yonedas = list(zip(types, columns))
    rows = list(zip((limpl[t] for t in types), columns))
    homs = [dq.hom(t, q) for t in types]
    steps = _chain_bound(c, q)

    def narrowed(below: Sequence, lo: Sequence, grown: Sequence) -> Sequence:
        """residuals(grown) from below = residuals(lo), for grown >= lo: each
        raised coordinate only lowers the residuals, so its rows meet in."""
        for x, (v, w) in enumerate(zip(lo, grown)):
            if v != w:
                below = [meet[m][lim[w][col[x]]] for m, (lim, col) in zip(below, rows)]
        return below

    def propagate(lo: list, hi: list, below: Sequence) -> tuple | None:
        """The fixpoint of the node [lo, hi], or None when it is empty."""
        for rounds in range(steps):
            # hi meet f(lo), met in hom(q, |z|) and involuted back.  ``below``
            # mixes a capped row with uncapped meets; both cap alike, since
            # cap(m meet s) = cap(cap(m) meet s) when homs are closed under joins.
            narrower = [involve[cap[meet[involve[u]][m]]] for cap, u, m in zip(caps, hi, below)]
            if rounds and narrower == hi:
                return lo, hi, below  # lo already holds f(hi)
            hi = narrower
            (residuals,) = dq.residual_matrix([(q, hi)], yonedas)  # capped
            grown = [join[v][involve[m]] for v, m in zip(lo, residuals)]
            if not all(leq[v][u] for v, u in zip(grown, hi)):
                return None
            if grown == lo:
                return lo, hi, below
            lo, below = grown, narrowed(below, lo, grown)
        raise InvariantError("the bound propagation failed to converge")

    found = []
    bottom = [dq.hom_bottom(t, q) for t in types]
    (below,) = dq.residual_matrix([(q, bottom)], yonedas)
    stack = [(bottom, [dq.hom_top(t, q) for t in types], below)]
    while stack:
        node = propagate(*stack.pop())
        if node is None:
            continue
        lo, hi, below = node
        candidates = [
            (z, [w for w in homs[z] if leq[v][w] and leq[w][u]])
            for z, (v, u) in enumerate(zip(lo, hi))
            if v != u
        ]
        if not candidates:
            found.append(tuple(lo))
            continue
        z, between = min(candidates, key=lambda pair: len(pair[1]))
        for w in between:
            lo_w, hi_w = lo.copy(), hi.copy()
            lo_w[z] = hi_w[z] = w
            stack.append((lo_w, hi_w, narrowed(below, lo, lo_w)))
    yield from sorted(found)



def table_tight_columns(c: QCategory, q) -> Iterator[tuple]:
    """The table-driven cut search that the branch-and-propagate search
    replaced (oracle).  All tight columns of type q, in lexicographic hom
    order.

    The search runs on the finite kernel's tables (``row_tables``): a
    hom meet is a lookup after one meet-table step, and the residual
    hom(x, z) <swarrow> v is read from a row per coordinate x and value v,
    built once per search.

    The search space is first narrowed to the interval [lo, hi] between the
    least and greatest fixed points of the squared tightness operator (the
    operator itself is antitone, so its square is monotone and every tight
    column lies in that interval), then walked depth-first.

    At depth k the walk carries the running residual row_k(z), the meet
    over the fixed coordinates x < k of hom(x, z) <swarrow> mu(x), inside
    hom(q, |z|).  A candidate v for mu(k) is admissible iff v deg lies below
    the meet of row_k(k) and hom(k, k) <swarrow> v; the mirrored inequalities
    are the involutes of these, since the category is symmetric.  Appending
    v reads its residual row and costs n two-element hom meets.

    The cut: every open coordinate x >= k stays below hi(x) and <swarrow>
    is antitone in mu, so the final residual at z is at least
    row_k(z) meet floor_k(z), with floor_k(z) the residual of the open
    coordinates all at hi.  A tight column has residual mu(z) deg, which is
    at most hi(z) deg; a prefix whose lower bound exceeds that at some z
    has no tight completion, and its subtree is skipped.  At a leaf mu is
    tight iff mu(z) deg equals row_n(z) for every z.
    """
    dq = c.quantaloid
    types = c.objects.types
    hom = c.hom.entries
    n = len(types)
    if n == 0:
        yield ()
        return

    meet, _join, leq, involve, limpl, hom_meet = row_tables(dq, q)
    top = dq.quantale.top
    # caps[z][m]: the largest element of hom(q, |z|) below m.
    caps = [hom_meet[t] for t in types]
    # residual[x][v][z] = hom(x, z) <swarrow> v.
    residual = [
        [tuple(limpl[t][v][h] for t, h in zip(types, hom[x])) for v in range(len(involve))]
        for x in range(n)
    ]

    def tight_step(values: tuple) -> tuple:
        """(hom <swarrow> mu) deg: one application of the tightness operator."""
        rows = [residual[x][v] for x, v in enumerate(values)]
        out = []
        for z, cap in enumerate(caps):
            m = top
            for row in rows:
                m = meet[m][row[z]]
            out.append(involve[cap[m]])
        return tuple(out)

    steps = _chain_bound(c, q)

    def f2_limit(start: tuple) -> tuple:
        current = start
        for _ in range(steps):
            nxt = tight_step(tight_step(current))
            if nxt == current:
                return current
            current = nxt
        raise InvariantError("squared tightness operator failed to converge")

    lo = f2_limit(tuple(dq.hom_bottom(t, q) for t in types))
    hi = f2_limit(tuple(dq.hom_top(t, q) for t in types))
    domains = [
        tuple(v for v in dq.hom(types[z], q) if leq[lo[z]][v] and leq[v][hi[z]])
        for z in range(n)
    ]

    # floor[k][z]: the residual at z of the coordinates x >= k, each at hi[x].
    floor = [()] * n + [tuple(dq.hom_top(q, t) for t in types)]
    for x in reversed(range(n)):
        floor[x] = tuple(
            cap[meet[above][r]] for cap, above, r in zip(caps, floor[x + 1], residual[x][hi[x]])
        )
    # ceiling[z]: mu(z) deg for the fixed coordinates, hi[z] deg for the rest.
    ceiling = [involve[v] for v in hi]
    partial: list = []

    def walk(k: int, row: Sequence) -> Iterator[tuple]:
        if k == n:
            if ceiling == row:
                yield tuple(partial)
            return
        cap_k, below, rows_k = caps[k], floor[k + 1], residual[k]
        for v in domains[k]:
            vv = involve[v]
            res = rows_k[v]
            if not leq[vv][cap_k[meet[row[k]][res[k]]]]:
                continue
            ceiling[k] = vv
            nxt = []
            for cap, old, new, low, most in zip(caps, row, res, below, ceiling):
                r = cap[meet[old][new]]
                if not leq[cap[meet[r][low]]][most]:
                    break
                nxt.append(r)
            else:
                partial.append(v)
                yield from walk(k + 1, nxt)
                partial.pop()
        ceiling[k] = involve[hi[k]]

    try:
        yield from walk(0, floor[n])
    finally:
        del walk  # walk's own cell holds it: break the cycle, even when abandoned


def is_ambient(c: QCategory, mu: Presheaf) -> bool:
    """Membership of the ambient set: an admissible presheaf of c."""
    if mu.base != c:
        raise ShapeMismatchError("presheaf does not live on this category")
    return column_admissible(c, mu.q, mu.values)


def ambient_presheaves(c: QCategory) -> list[Presheaf]:
    """The ambient walk before it became one lazy generator (oracle): every
    presheaf, validated, then filtered through ``is_ambient``."""
    return [mu for mu in presheaves(c) if is_ambient(c, mu)]


def all_pairs_maximal(c: QCategory, members: Sequence[tuple]) -> bool:
    """The maximality check before it grouped the members by type (oracle):
    no ambient presheaf lies strictly above a (q, values) member, by the
    loop over every member and every ambient presheaf."""
    dq = c.quantaloid
    maximal = True
    ambient = ambient_presheaves(c)
    for q, values in members:
        for mu in ambient:
            if mu.q != q:
                continue
            if all(dq.leq(values[i], mu.values[i]) for i in range(len(c))) and (
                mu.values != values
            ):
                maximal = False
    return maximal


def per_member_restriction(f: QFunctor, domain_span, span_cod) -> tuple[str, ...]:
    """The failures of ``tight_span_restriction`` by its loop before it took
    one ``residual_matrix`` for every image (oracle): one ``is_tight_column``
    call per member of ``span_cod``, the codomain's span.  The entry checks
    are left to the caller."""
    dq = f.domain.quantaloid
    dom, cod = f.domain, f.codomain
    gr = graph(f).entries
    failures = []
    image_keys = []
    kept = []
    for k, (q, lam) in enumerate(span_cod.members):
        values = tuple(
            dq.hom_join(
                dom.objects.types[x],
                q,
                (dq.compose(gr[x][y], cod.objects.types[y], lam[y]) for y in range(len(cod))),
            )
            for x in range(len(dom))
        )
        if not is_tight_column(dom, q, values):
            failures.append(f"image of {span_cod.category.names[k]} is not tight on the domain")
            continue
        image_keys.append((q, values))
        kept.append(k)
    if len(set(image_keys)) != len(image_keys):
        failures.append("transport is not injective")
    if set(image_keys) != set(domain_span.members):
        failures.append("transport is not onto the domain tight span")
    span_hom = span_cod.category.hom.entries
    kept_hom = tuple(tuple(span_hom[i][j] for j in kept) for i in kept)
    images = [Presheaf(dom, q, values) for q, values in image_keys]
    if presheaf_hom_matrix(images, images) != kept_hom:
        failures.append("transport is not an isometry")
    return tuple(failures)


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
    carrier = TypedSet(c.quantaloid, c.names + (_fresh_name(c),), c.objects.types + (mu.q,))
    extended = _extend_matrix(c, carrier, mu.values)
    report = validate_category(extended)
    if not report.valid:
        raise InvariantError(
            f"an ambient presheaf must induce a valid extension: {report.to_dict()}"
        )
    if not is_symmetric(extended):
        raise InvariantError("an ambient presheaf must induce a symmetric extension")
    return extended


# -- functor search ----------------------------------------------------------------


def reference_functor_search(
    domain: QCategory, codomain: QCategory, pools: Sequence, equal=()
) -> Iterator[QFunctor]:
    """The functor search before it was pruned: every candidate of
    ``itertools.product`` over pools of codomain positions, kept when
    ``validate_functor`` passes it and, between two positions both in
    ``equal``, the homs are preserved."""
    dom, cod = domain.hom.entries, codomain.hom.entries
    for assignment in itertools.product(*pools):
        f = QFunctor(domain, codomain, assignment)
        if not validate_functor(f).valid:
            continue
        a = assignment
        if all(dom[i][j] == cod[a[i]][a[j]] for i in equal for j in equal):
            yield f


def reference_all_functors(domain: QCategory, codomain: QCategory) -> Iterator[QFunctor]:
    """Every functor, by ``reference_functor_search`` over the pools of
    ``all_functors``: the codomain positions of each domain point's type."""
    pools = [
        tuple(k for k, s in enumerate(codomain.objects.types) if s == t)
        for t in domain.objects.types
    ]
    yield from reference_functor_search(domain, codomain, pools)


def functor_compose(g: QFunctor, f: QFunctor) -> QFunctor:
    """g . f, for f's codomain equal to g's domain."""
    if f.codomain != g.domain:
        raise ShapeMismatchError("functors are not composable")
    return QFunctor(f.domain, g.codomain, tuple(g.assignment[y] for y in f.assignment))


def one_more_point_receivers(dq: DiagonalQuantaloid, max_objects: int) -> tuple:
    """The receivers of ``essential_over_one_more_point``: the first of each
    isomorphism class of the symmetric categories with at most
    ``max_objects`` points, in enumeration order, each with its points'
    indices by type."""
    classes: dict = {}
    for z_cat in enumerate_symmetric_categories(dq, max_objects):
        classes.setdefault(_canonical_signature(z_cat), z_cat)
    return tuple(
        (z_cat, {t: _of_type(z_cat, t) for t in z_cat.objects.types})
        for z_cat in classes.values()
    )


def essential_over_one_more_point(f: QFunctor, receivers: Sequence) -> EssentialResult:
    """``is_essential_bruteforce`` as it was before the image lemma: the walk
    over every receiver with at most |codomain| + 1 points (oracle).
    ``receivers`` is ``one_more_point_receivers`` of any bound from
    |codomain| + 1 up; its receivers of more points are not walked.  In the
    essential case ``categories_checked`` counts every receiver of at most
    |codomain| + 1 points."""
    if not is_fully_faithful(f):
        raise PreconditionError("essentiality is only defined for fully faithful functors")
    cod = f.codomain
    hom, types = cod.hom.entries, cod.objects.types
    image = set(f.assignment)
    walked = [r for r in receivers if len(r[0]) <= len(cod) + 1]
    for k, (z_cat, by_type) in enumerate(walked):
        if not by_type.keys() >= set(types):
            continue
        pools = [by_type[t] for t in types]
        z_hom = z_cat.hom.entries
        for g in _functor_search(cod, z_cat, pools, image):
            if any(row[j] != z_hom[a][b] for row, a in zip(hom, g) for j, b in enumerate(g)):
                return EssentialResult(False, (z_cat, QFunctor(cod, z_cat, g)), k + 1)
    return EssentialResult(True, None, len(walked))


# -- suites --------------------------------------------------------------------


def t44_single_checked_twice(x_cat: QCategory) -> dict:
    """The ``t44`` verdict of one category as ``verify._t44_single`` made it
    before it let ``tight_span_restriction`` decide full faithfulness and
    density (oracle): both are computed here, and the transport checks
    them again at its entry."""
    span = tight_span(x_cat)
    embedding = span.yoneda_embedding()
    embedded = embedding is not None

    fully_faithful = dense = codense = columns_tight = transport_ok = maximal = False
    if embedded:
        fully_faithful = is_fully_faithful(embedding)
        dense = is_dense(embedding)
        codense = is_codense(embedding)
        # Graph columns land in the tight span of the domain.
        gr = graph(embedding).entries
        columns_tight = all(
            is_tight_column(x_cat, q, tuple(row[j] for row in gr))
            for j, (q, _) in enumerate(span.members)
        )
        transport_ok = fully_faithful and dense and tight_span_restriction(embedding, span).ok
        maximal = _maximal_in_ambient(x_cat, span.members)
    ok = all(
        [embedded, fully_faithful, dense, codense, columns_tight, transport_ok, maximal]
    )
    return {
        "yoneda_in_span": embedded,
        "fully_faithful": fully_faithful,
        "dense": dense,
        "codense": codense,
        "graph_columns_tight": columns_tight,
        "transport_isomorphism": transport_ok,
        "tight_maximal_in_ambient": maximal,
        "agree": ok,
    }


def run_suite_per_category(
    theorem: str, quantale: FiniteQuantale, bound: int, strict: bool = True
) -> dict:
    """The report of ``verify.run_suite`` for t36, l43 or t44, with every
    labelled category checked on its own rather than once per isomorphism
    class, over the raw enumeration.  Bounds and typing are not re-checked."""
    cats = list(raw_symmetric_categories(diagonal_quantaloid(quantale), bound))

    if theorem == "t44":
        results = [{"category": x_cat.to_dict(), **_t44_single(x_cat)} for x_cat in cats]
    else:
        single = {"t36": _t36_single, "l43": _l43_single}[theorem]
        results = [{"category": x_cat.to_dict(), **single(x_cat, strict)} for x_cat in cats]

    discrepancies = [r for r in results if not r["agree"]]
    return {
        "check": theorem,
        "result": not discrepancies,
        "witness": discrepancies[0] if discrepancies else None,
        "quantale": quantale.name,
        "bound": bound,
        "strict_typing": strict,
        "categories": len(results),
        "discrepancies": len(discrepancies),
    }


def run_t54_per_functor(quantale: FiniteQuantale, bound: int) -> dict:
    """The report of ``verify.run_suite`` for t54, with every fully faithful
    functor between labelled categories checked on its own, over the raw
    enumeration and the unpruned functor search, and each one's report entry
    built as it is checked.  Bounds are not re-checked."""
    cats = list(raw_symmetric_categories(diagonal_quantaloid(quantale), bound))
    results = [
        {
            "domain": f.domain.to_dict(),
            "codomain": f.codomain.to_dict(),
            "map": f.as_dict(),
            **_t54_single(f, bound),
        }
        for x_cat in cats
        for y_cat in cats
        for f in reference_all_functors(x_cat, y_cat)
        if is_fully_faithful(f)
    ]
    discrepancies = [r for r in results if not r["agree"]]
    return {
        "check": "t54",
        "result": not discrepancies,
        "witness": discrepancies[0] if discrepancies else None,
        "quantale": quantale.name,
        "bound": bound,
        "strict_typing": True,
        "functors": len(results),
        "discrepancies": len(discrepancies),
    }


def raw_canonical_signature(types: tuple, entries: tuple) -> tuple:
    """The least relabelling of (types, entries), as the raw enumeration
    keyed it."""
    n = len(types)
    best = None
    for perm in itertools.permutations(range(n)):
        sig = (
            tuple(types[perm[i]] for i in range(n)),
            tuple(entries[perm[i]][perm[j]] for i in range(n) for j in range(n)),
        )
        if best is None or sig < best:
            best = sig
    return best


def marked_signature(c: QCategory, marked) -> tuple:
    """``raw_canonical_signature`` of c with each type paired with whether
    its position is in ``marked``: the n! reference for the marked
    ``_canonical_signature``."""
    colours = tuple((t, k in marked) for k, t in enumerate(c.objects.types))
    return raw_canonical_signature(colours, c.hom.entries)


def raw_symmetric_categories(
    dq: DiagonalQuantaloid,
    max_objects: int,
    up_to_iso: bool = False,
) -> Iterator[QCategory]:
    """Every valid symmetric category with at most max_objects points, by
    validating every candidate matrix (type tuple x upper triangle).

    Deterministic order: size ascending, diagonal types lexicographic in
    element load order, then upper-triangle entries lexicographic.  With
    ``up_to_iso`` relabelings of the points are emitted only once.
    """
    objects = dq.objects()
    seen: set = set()
    for n in range(max_objects + 1):
        names = tuple(f"x{i}" for i in range(n))
        for types in itertools.product(objects, repeat=n):
            pair_indices = [(i, j) for i in range(n) for j in range(i + 1, n)]
            pools = [dq.hom(types[i], types[j]) for i, j in pair_indices]
            for choice in itertools.product(*pools):
                entries = [[None] * n for _ in range(n)]
                for i in range(n):
                    entries[i][i] = dq.identity(types[i])
                for (i, j), u in zip(pair_indices, choice):
                    entries[i][j] = u
                    entries[j][i] = dq.involve(u)
                matrix = tuple(tuple(row) for row in entries)
                if up_to_iso:
                    sig = (n, raw_canonical_signature(types, matrix))
                    if sig in seen:
                        continue
                    seen.add(sig)
                carrier = TypedSet(dq, names, types)
                cat = QCategory(carrier, QRelation(carrier, carrier, matrix))
                if validate_category(cat).valid:
                    yield cat


def validated_extensions(c: QCategory, new_name: str) -> Iterator[QCategory]:
    """The one-point extensions of the valid symmetric c, by building every
    candidate column and keeping those that pass ``validate_category``."""
    dq = c.quantaloid
    for q in dq.objects():
        carrier = TypedSet(dq, c.names + (new_name,), c.objects.types + (q,))
        for column in itertools.product(*(dq.hom(t, q) for t in c.objects.types)):
            extended = _extend_matrix(c, carrier, column)
            if validate_category(extended).valid:
                _mark_symmetric(extended)
                yield extended


def relabel(c: QCategory, perm: Sequence[int]) -> QCategory:
    """The category whose point i is the point perm[i] of c, under c's names."""
    types = c.objects.types
    hom = c.hom.entries
    carrier = TypedSet(c.quantaloid, c.names, tuple(types[p] for p in perm))
    entries = tuple(tuple(hom[p][r] for r in perm) for p in perm)
    return QCategory(carrier, QRelation(carrier, carrier, entries))


# -- extended rationals --------------------------------------------------------


def to_fraction(v: ExtRat) -> Fraction:
    """The finite value of an ExtRat as a Fraction."""
    if v == INF:
        raise ValueError("infinity has no finite fraction")
    return Fraction(v._n, v._d)


def fraction_parse(text: str) -> ExtRat:
    """``ExtRat.parse`` as it was before its fast path: every literal
    through one ``Fraction``."""
    if not isinstance(text, str):
        raise SchemaError(f"expected a string rational, got {text!r}")
    text = text.strip()
    if text == "inf":
        return INF
    if "e" in text or "E" in text:
        text = _bounded_exponent(text)
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational literal {text!r}: {exc}") from exc
    if frac.numerator < 0:
        raise SchemaError(f"negative rational {text!r} not allowed")
    if frac.numerator >= _TOO_LONG or frac.denominator >= _TOO_LONG:
        raise _too_long(text)
    return _pair(frac.numerator, frac.denominator)


class FractionExtRat:
    """``ExtRat`` as it was on a ``fractions.Fraction`` (None is infinity),
    the reference for the int-pair class."""

    __slots__ = ("_frac",)

    def __init__(self, value: int | Fraction | None = 0):
        if value is not None:
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"ExtRat takes an int, a Fraction or None, got {value!r}")
            value = Fraction(value)
            if value < 0:
                raise ValueError(f"ExtRat must be non-negative, got {value}")
        object.__setattr__(self, "_frac", value)

    def __setattr__(self, name, value):
        raise AttributeError("ExtRat is immutable")

    @classmethod
    def parse(cls, text: str) -> "FractionExtRat":
        """Parse "p/q", "n" or "inf" (the serialization used in all files)."""
        if not isinstance(text, str):
            raise SchemaError(f"expected a string rational, got {text!r}")
        text = text.strip()
        if text == "inf":
            return cls(None)
        try:
            frac = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational literal {text!r}: {exc}") from exc
        if frac < 0:
            raise SchemaError(f"negative rational {text!r} not allowed")
        return cls(frac)

    @property
    def is_infinite(self) -> bool:
        return self._frac is None

    @property
    def fraction(self) -> Fraction:
        if self._frac is None:
            raise ValueError("infinity has no finite fraction")
        return self._frac

    def __add__(self, other: "FractionExtRat") -> "FractionExtRat":
        if not isinstance(other, FractionExtRat):
            return NotImplemented
        if self._frac is None or other._frac is None:
            return FRACTION_INF
        return _unchecked(self._frac + other._frac)

    def monus(self, other: "FractionExtRat") -> "FractionExtRat":
        """Truncated difference; see the ``rationals`` docstring for conventions."""
        if not isinstance(other, FractionExtRat):
            raise TypeError(f"monus needs an ExtRat, got {other!r}")
        if other._frac is None:
            return FRACTION_ZERO
        if self._frac is None:
            return FRACTION_INF
        diff = self._frac - other._frac
        return _unchecked(diff) if diff > 0 else FRACTION_ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionExtRat) and self._frac == other._frac

    def __hash__(self) -> int:
        return hash(self._frac)

    def __le__(self, other: "FractionExtRat") -> bool:
        if not isinstance(other, FractionExtRat):
            return NotImplemented
        if other._frac is None:
            return True
        if self._frac is None:
            return False
        return self._frac <= other._frac

    def __lt__(self, other: "FractionExtRat") -> bool:
        if not isinstance(other, FractionExtRat):
            return NotImplemented
        if self._frac is None:
            return False
        if other._frac is None:
            return True
        return self._frac < other._frac

    def __ge__(self, other: "FractionExtRat") -> bool:
        if not isinstance(other, FractionExtRat):
            return NotImplemented
        return other <= self

    def __gt__(self, other: "FractionExtRat") -> bool:
        if not isinstance(other, FractionExtRat):
            return NotImplemented
        if other._frac is None:
            return False
        if self._frac is None:
            return True
        return self._frac > other._frac

    def __str__(self) -> str:
        return "inf" if self._frac is None else str(self._frac)

    def __repr__(self) -> str:
        return f"FractionExtRat({str(self)!r})"


_set_frac = FractionExtRat._frac.__set__  # the slot's own setter, past __setattr__


def _unchecked(frac: Fraction) -> FractionExtRat:
    """A FractionExtRat from a reduced, non-negative Fraction, unchecked."""
    value = object.__new__(FractionExtRat)
    _set_frac(value, frac)
    return value


FRACTION_INF = FractionExtRat(None)
FRACTION_ZERO = FractionExtRat(0)


# -- partial metrics -----------------------------------------------------------


def extrat_ambient_violation(space: ParMetSpace, mu: RadiusFunction) -> tuple[str, str] | None:
    """``ambient_violation`` as an ExtRat loop, cell by cell."""
    _require_well_typed(space, mu)
    a = space.alpha
    n = len(space)
    for i in range(n):
        for j in range(n):
            if not a[i][j] <= mu.values[i].monus(mu.r) + mu.values[j]:
                return (space.points[i], space.points[j])
    return None


def extrat_tight_violation(space: ParMetSpace, mu: RadiusFunction) -> str | None:
    """``tight_violation`` as an ExtRat loop, cell by cell."""
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


def extrat_tight_member(space: ParMetSpace, mu: RadiusFunction) -> bool:
    return extrat_tight_violation(space, mu) is None


def extrat_tighten_sweep(space: ParMetSpace, mu: RadiusFunction) -> RadiusFunction:
    """``tighten_sweep`` as an ExtRat loop, with the checks above."""
    violation = extrat_ambient_violation(space, mu)
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
        if extrat_tight_member(space, candidate):
            if any(new > old for old, new in zip(mu.values, candidate.values)):
                raise InvariantError("tightening must not increase any value")
            return candidate
    raise InvariantError(f"tightening did not reach a fixed point within {cap} sweeps")


def extrat_sigma(space: ParMetSpace, mu: RadiusFunction, lam: RadiusFunction) -> ExtRat:
    """``sigma`` as an ExtRat loop, with the checks above."""
    for f in (mu, lam):
        if not extrat_tight_member(space, f):
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


def _signed(a: ExtRat, b: ExtRat) -> tuple:
    """a - b as a (rank, value) pair whose tuple order is the extended order:
    rank 0 is -inf, 1 finite, 2 +inf.  inf - inf is 0 to match the monus."""
    if b == INF:
        return (1, 0) if a == INF else (0, 0)
    if a == INF:
        return (2, 0)
    return (1, to_fraction(a) - to_fraction(b))


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
