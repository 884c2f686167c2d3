"""Tight spans, hypercompleteness, injectivity and density checks.

For a symmetric category X the ambient set consists of the presheaves mu
with mu deg . mu <= hom; the tight ones additionally satisfy
mu deg = hom <swarrow> mu and are exactly the maximal ambient presheaves.
The tight span collects all tight presheaves into a new symmetric category
whose hom is the presheaf-category hom.  Every presheaf here is a
(q, values) pair, as in ``categories``.

The ambient presheaves are also the one-point extensions of X: a new point
with hom column mu and hom row mu deg makes a valid symmetric category
exactly when mu is ambient, so the extensions, and the enumeration of
small categories grown from them, build no candidate they then reject.
``enumerate_ambient`` is the one lazy walk over them.  The extension
matrices, the tight span's hom and full subcategories' homs are built as
trusted relations (``QRelation._trusted``): their entries are diagonals of
the right types by construction, so none is checked again.

Hypercompleteness asks every self-compatible column to admit a witness
object.  Because the admissible columns of a fixed type form a
downward-closed set whose maximal elements are exactly the tight columns,
it suffices to search witnesses for tight columns only; this reduction is
what makes the exhaustive checks below tractable, and the test suite
cross-validates it against the naive all-columns scan on small instances.

Every presheaf residual here, hom <swarrow> mu or nu <swarrow> mu, is a row
or a matrix of the kernel's ``residual_matrix``.

The tight columns themselves come from one branch-and-propagate search
(``_enumerate_tight_columns``).  A tight column is a fixed point of the
antitone map f(mu) = (hom <swarrow> mu) deg, so every tight column in an
interval [lo, hi] of columns lies in [f(hi), f(lo)] too.  Each node of the
search narrows its interval to a fixpoint of that step, which is the
alternating fixpoint of Van Gelder ("The alternating fixpoint of logic
programs with negation", JCSS 1993; see also Denecker, Marek and
Truszczynski, "Approximations, stable operators, well-founded fixpoints
and applications in nonmonotonic reasoning", 2000) carried down the search
as consistency propagation (Mackworth, "Consistency in networks of
relations", AIJ 1977).  A node whose bounds cross holds no tight column; a
node whose bounds meet is one; any other node branches on the coordinate
with the fewest values left.  The tight span of a tight span, which has
only its Yoneda columns, is nearly all propagation: over lukasiewicz5 the
span of the discrete three-point category has 21 objects, and the search of
its span is a fraction of a second.  The search's residuals are packed:
the kernel codes each element by the join-irreducibles below it
(``column_tables``), a meet of codes is an AND, and a whole residual row
is one integer with a field per point, so a row costs one AND per
coordinate and is decoded only where a bound is capped and involuted.

The kernel keeps one memo for the hull, ``_SpanMemo``, keyed on the types
and hom of every span ``tight_span`` has built: the span's tight columns of
each type, once searched, and its own tight span, once built.  Spans repeat
across classes because the tight span is the injective hull: a category
that embeds densely and fully faithfully into another has an isomorphic
span (the transport ``t44`` checks), and a span lists its points in one
fixed order, by type and then column, so such spans often come out as the
same matrix.  The spans of the 46 classes of lukasiewicz3 at bound 3 are 13
distinct matrices, of 12 isomorphism classes.  So ``l43`` searches each
distinct span once, and ``t44`` builds and checks the span of each
distinct span once.  A suite meets each class's own category once, so no
other category's search is kept.  The memo dies with the quantale, so
every load, and so every CLI job, starts with it empty.

The injective hull of X is its tight span with the dense, fully faithful
Yoneda embedding x |-> hom(-, x) (``TightSpan.yoneda_embedding``); tight
presheaves transport back along dense fully faithful functors only.

Results the library builds for itself (a tight span, the tight columns
of a search) are checked, and a failure raises ``InvariantError`` rather
than an ``assert`` that ``python -O`` strips.

Typing of the witness is subtle: the default ("strict") requires the
witness object's type to equal the column's type, which is what makes the
injectivity equivalences hold.  The lax elementwise reading is available
behind a flag for cross-checking the partial-metric formulation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Collection, Iterator, Sequence

from .categories import (
    QCategory,
    QFunctor,
    _distributor_holds,
    _fully_faithful,
    _mark_symmetric,
    _require_symmetric,
    cograph,
    enumerate_presheaves,
    graph,
    is_fully_faithful,
    is_symmetric,
    validate_category,
)
from .diagonals import DiagonalQuantaloid
from .errors import BoundExceededError, InvariantError, PreconditionError, ShapeMismatchError
from .relations import QRelation, TypedSet, rel_residual

__all__ = [
    "is_tight_column",
    "column_admissible",
    "TightSpan",
    "tight_span",
    "HypercompleteResult",
    "is_hypercomplete",
    "extend_along",
    "find_one_point_retraction",
    "one_point_extensions",
    "full_subcategory",
    "inclusion_functor",
    "all_functors",
    "is_dense",
    "is_codense",
    "EssentialResult",
    "is_essential_bruteforce",
    "TransportResult",
    "tight_span_restriction",
    "enumerate_symmetric_categories",
    "enumerate_ambient",
]


# -- membership -------------------------------------------------------------


def _require_column(c: QCategory, values: Sequence) -> None:
    if len(values) != len(c):
        raise ShapeMismatchError("the column must assign a value to every object")


def column_admissible(c: QCategory, q, values: Sequence) -> bool:
    """mu deg . mu <= hom for a raw column of type q (no distributor needed):
    the kernel's ``admissible`` scan."""
    _require_column(c, values)
    return c.quantaloid.admissible(c.objects.types, c.hom.entries, q, values)


def enumerate_ambient(c: QCategory) -> Iterator[tuple]:
    """(q, values) for every ambient presheaf, lazily, in the order of
    ``enumerate_presheaves``: the one walk over ambient columns, which the
    one-point extensions read."""
    for q, values in enumerate_presheaves(c):
        if column_admissible(c, q, values):
            yield q, values


def _chain_bound(c: QCategory, q) -> int:
    """Steps bounding a strictly monotone chain of type-q columns, whose
    coordinate z moves at most len(hom(|z|, q)) - 1 times."""
    dq = c.quantaloid
    return sum(len(dq.hom(t, q)) for t in c.objects.types) + 1


def is_tight_column(c: QCategory, q, values: Sequence) -> bool:
    """mu deg = hom <swarrow> mu for a raw column; such a column is
    automatically a presheaf (checked)."""
    _require_column(c, values)
    (holds,) = _tight_equation(c, [(q, values)])
    return holds


def _tight_equation(c: QCategory, columns: Sequence) -> list[bool]:
    """Whether mu deg = hom <swarrow> mu, for each (q, mu) of ``columns``
    over the points of c, from one ``residual_matrix`` against the Yoneda
    columns.  Every column that satisfies it is checked to be a presheaf."""
    dq = c.quantaloid
    yonedas = list(zip(c.objects.types, zip(*c.hom.entries)))
    holds = [
        all(dq.involve(v) == r for v, r in zip(values, row))
        for (_, values), row in zip(columns, dq.residual_matrix(columns, yonedas))
    ]
    for tight, (q, values) in zip(holds, columns):
        if tight and not _distributor_holds(c, q, values):
            raise InvariantError("a column satisfying the tight equation must be a presheaf")
    return holds


# -- tight span -------------------------------------------------------------


def _enumerate_tight_columns(c: QCategory, q) -> Iterator[tuple]:
    """All tight columns of type q, in lexicographic hom order.

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

    The residuals run on the kernel's element codes (``column_tables``),
    in which a meet is an AND.  Once per search, each coordinate x and value
    w in hom(|x|, q) gets one packed row whose field z holds the code of
    limpl(q, |z|, w, hom(x, z)), so the residual row hom <swarrow> mu is the
    AND of n packed rows, and f(hi) is that row decoded field by field (the
    decoders cap into hom(q, |z|) and involute).  Raising lo only lowers the
    residuals, so ``below`` = residuals(lo) starts as one row and is kept up
    to date by one AND per raised coordinate.  Each round that does not end
    the propagation moves a bound strictly inward, so a node takes at most
    ``_chain_bound`` rounds.  The columns found are sorted.
    """
    dq = c.quantaloid
    types = c.objects.types
    codes, join, leq, involve, limpl, decoders = dq.column_tables(q)
    width = max(codes).bit_length()  # the top's code has every bit set
    mask = (1 << width) - 1
    shifts = range(0, len(types) * width, width)
    homs = [dq.hom(t, q) for t in types]
    # packed[x][w]: the residual row of w alone at x, field z at shift z
    lims = [limpl[t] for t in types]
    packed = []
    for row, hom_x in zip(c.hom.entries, homs):
        fields = [None] * len(codes)
        for w in hom_x:
            acc = 0
            for lim, h, shift in zip(lims, row, shifts):
                acc |= codes[lim[w][h]] << shift
            fields[w] = acc
        packed.append(fields)
    # decode[z]: a field's code to the involute of its cap into hom(q, |z|)
    decode = [decoders[t] for t in types]
    flipped = [codes[a] for a in involve]  # the code of a deg
    full = (1 << len(types) * width) - 1  # every field the top
    steps = _chain_bound(c, q)

    def residuals(mu: Sequence) -> int:
        """hom <swarrow> mu, packed and uncapped."""
        r = full
        for fields, w in zip(packed, mu):
            r &= fields[w]
        return r

    def narrowed(below: int, lo: Sequence, grown: Sequence) -> int:
        """residuals(grown) from below = residuals(lo), for grown >= lo: each
        raised coordinate only lowers the residuals, so its row meets in."""
        for fields, v, w in zip(packed, lo, grown):
            if v != w:
                below &= fields[w]
        return below

    def propagate(lo: list, hi: list, below: int) -> tuple | None:
        """The fixpoint of the node [lo, hi], or None when it is empty."""
        for rounds in range(steps):
            # hi meet f(lo), met in hom(q, |z|) and involuted back.  ``below``
            # is uncapped; the cap is the same, since cap(m meet s) =
            # cap(cap(m) meet s) when homs are closed under joins.
            narrower = [d[flipped[u] & below >> s] for d, u, s in zip(decode, hi, shifts)]
            if rounds and narrower == hi:
                return lo, hi, below  # lo already holds f(hi)
            hi = narrower
            r = residuals(hi)
            grown = [join[v][d[r >> s & mask]] for v, d, s in zip(lo, decode, shifts)]
            if not all(leq[v][u] for v, u in zip(grown, hi)):
                return None
            if grown == lo:
                return lo, hi, below
            lo, below = grown, narrowed(below, lo, grown)
        raise InvariantError("the bound propagation failed to converge")

    found = []
    bottom = [dq.hom_bottom(t, q) for t in types]
    stack = [(bottom, [dq.hom_top(t, q) for t in types], residuals(bottom))]
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


@dataclass
class _SpanMemo:
    """What the kernel keeps of a category that ``tight_span`` built: its
    tight columns of each type q searched so far, and its own tight span as
    (members, category) once built."""

    columns: dict = field(default_factory=dict)
    span: tuple | None = None


def _span_memo(c: QCategory) -> _SpanMemo | None:
    """The kernel's memo of c when ``tight_span`` built a category with c's
    types and hom, else None.  The key is by value, since spans repeat as
    fresh categories, and leaves out the names, which the search does not
    read."""
    return c.quantaloid._spans.get((c.objects.types, c.hom.entries))


def _tight_columns(c: QCategory, q, memo: _SpanMemo | None) -> tuple:
    """The tight columns of type q, as ``_enumerate_tight_columns`` lists
    them: searched once per memo, and afresh for a category without one."""
    if memo is None:
        return tuple(_enumerate_tight_columns(c, q))
    found = memo.columns.get(q)
    if found is None:
        found = memo.columns[q] = tuple(_enumerate_tight_columns(c, q))
    return found


@dataclass(frozen=True)
class TightSpan:
    """The tight presheaves of a symmetric category, as (q, values) pairs in
    the order of the span's points, also viewed as a category."""

    base: QCategory
    members: tuple[tuple, ...]
    category: QCategory

    def yoneda_embedding(self) -> QFunctor | None:
        """The functor x |-> hom(-, x) from the base into the span, or None
        when some Yoneda column is not a member."""
        positions = {member: k for k, member in enumerate(self.members)}
        yonedas = zip(self.base.objects.types, zip(*self.base.hom.entries))
        assignment = tuple(positions.get(column) for column in yonedas)
        return None if None in assignment else QFunctor(self.base, self.category, assignment)


def tight_span(c: QCategory) -> TightSpan:
    """Enumerate all tight presheaves and materialize them as a category.

    Each member is checked to be a presheaf.  The span's hom is the
    kernel's ``residual_matrix`` of the members with themselves.  The span
    is checked symmetric and valid here and comes back marked, so
    ``_require_symmetric`` does not check it again.  The kernel keeps a
    ``_SpanMemo`` for every span built here, so the span of a span is built
    and checked once per distinct (types, hom) and read back after that.
    """
    _require_symmetric(c)
    dq = c.quantaloid
    memo = _span_memo(c)
    if memo is not None and memo.span is not None:
        return TightSpan(c, *memo.span)
    members = tuple((q, values) for q in dq.objects() for values in _tight_columns(c, q, memo))
    if not all(_distributor_holds(c, q, values) for q, values in members):
        raise InvariantError("every tight column must be a presheaf")
    names = tuple(f"t{i}" for i in range(len(members)))
    carrier = TypedSet(dq, names, tuple(q for q, _ in members))
    entries = dq.residual_matrix(members, members)
    category = QCategory(carrier, QRelation._trusted(carrier, carrier, entries))
    if not is_symmetric(category):
        raise InvariantError("the tight span must be symmetric")
    report = validate_category(category)
    if not report.valid:
        raise InvariantError(f"the tight span must be a category: {report.to_dict()}")
    _mark_symmetric(category)
    dq._spans.setdefault((carrier.types, entries), _SpanMemo())
    if memo is not None:
        memo.span = members, category
    return TightSpan(base=c, members=members, category=category)


# -- hypercompleteness -------------------------------------------------------


@dataclass(frozen=True)
class HypercompleteResult:
    holds: bool
    witness: tuple | None  # a tight (q, values) with no witness object
    tight_columns_checked: int


def is_hypercomplete(c: QCategory, strict: bool = True) -> HypercompleteResult:
    """Does every admissible column admit a witness object?

    Only tight columns are scanned; every admissible column lies below a
    tight one of the same type, and the witness condition is downward
    closed, so the answer agrees with the all-columns definition.
    """
    _require_symmetric(c)
    dq = c.quantaloid
    types = c.objects.types
    hom = c.hom.entries
    n = len(types)
    checked = 0
    memo = _span_memo(c)
    for q in dq.objects():
        for values in _tight_columns(c, q, memo):
            checked += 1
            for z in range(n):
                if strict and types[z] != q:
                    continue
                if all(dq.leq(values[x], hom[x][z]) for x in range(n)):
                    break
            else:
                return HypercompleteResult(False, (q, values), checked)
    return HypercompleteResult(True, None, checked)


# -- extensions and retractions ----------------------------------------------


def full_subcategory(c: QCategory, names: Sequence[str]) -> QCategory:
    """The objects ``names`` of c with the homs of c between them.

    Nothing is validated here: the entries are c's own, between c's own
    types.  The result carries the valid-and-symmetric mark only when c
    does: restricting both laws, and the equality of the hom with its
    involute transpose, to a subset of the objects keeps them.
    """
    indices = [c.objects.index(name) for name in names]
    carrier = TypedSet(
        c.quantaloid,
        tuple(c.names[i] for i in indices),
        tuple(c.objects.types[i] for i in indices),
    )
    entries = tuple(
        tuple(c.hom.entries[i][j] for j in indices) for i in indices
    )
    sub = QCategory(carrier, QRelation._trusted(carrier, carrier, entries))
    _mark_symmetric(sub, parent=c)
    return sub


def inclusion_functor(sub: QCategory, sup: QCategory) -> QFunctor:
    return QFunctor(sub, sup, tuple(map(sup.objects.index, sub.names)))


def _functor_search(
    domain: QCategory, codomain: QCategory, pools: Sequence, equal: Collection = ()
) -> Iterator[tuple[int, ...]]:
    """Every functor sending the i-th domain point into pools[i] (a tuple of
    codomain indices), as its tuple of codomain indices, in lexicographic
    order over the pools.  Between two domain positions both in ``equal``
    the homs must be preserved, not just increased.

    A backtracking search (Ullmann, "An algorithm for subgraph isomorphism",
    J. ACM 1976): the points are placed in order, and each candidate is
    checked only against the points already placed and itself, in both
    directions, so a branch is cut at its first failing pair.  This is the
    hom check of ``validate_functor``, pair by pair; types are the pools'
    business, and every caller builds them with ``_of_type`` or from points
    of the right type.
    """
    if not pools:
        yield ()  # the empty functor
        return
    if not all(pools):
        return  # an empty pool admits no functor
    last = len(pools) - 1
    leq = domain.quantaloid.leq
    dom, cod = domain.hom.entries, codomain.hom.entries
    marks = [k in equal for k in range(len(pools))]
    placed = [0] * len(pools)
    # candidates[i]: what is left of pools[i] to try at the i-th point
    candidates = [iter(pools[0])] + [()] * last
    i = 0
    while i >= 0:
        for a in candidates[i]:
            placed[i] = a
            row, hom_i, marked = cod[a], dom[i], marks[i]
            for j in range(i + 1):
                b = placed[j]
                if marked and marks[j]:
                    if row[b] != hom_i[j] or cod[b][a] != dom[j][i]:
                        break
                elif not (leq(hom_i[j], row[b]) and leq(dom[j][i], cod[b][a])):
                    break
            else:
                if i == last:
                    yield tuple(placed)
                else:
                    i += 1
                    candidates[i] = iter(pools[i])
                    break
        else:
            i -= 1


def _of_type(c: QCategory, t) -> tuple[int, ...]:
    """The indices of the points of c of type t, in order."""
    return tuple(k for k, s in enumerate(c.objects.types) if s == t)


def all_functors(
    domain: QCategory, codomain: QCategory, full: bool = False
) -> Iterator[QFunctor]:
    """Every valid functor, in lexicographic assignment order; with ``full``,
    only the fully faithful ones, in the same order.

    Each object's pool is the codomain objects of its type.  ``full`` asks
    the search to preserve the homs between all positions; its one caller
    in the library is the walk of ``verify t54`` to the first functor of a
    failing class, which runs only when some class fails.  ``extend_along``
    and ``find_one_point_retraction`` run the same search on narrower pools.
    """
    types = domain.objects.types
    if not set(types) <= set(codomain.objects.types):
        return  # some pool would be empty
    pools = [_of_type(codomain, t) for t in types]
    equal = range(len(pools)) if full else ()
    for assignment in _functor_search(domain, codomain, pools, equal):
        yield QFunctor(domain, codomain, assignment)


def extend_along(f: QFunctor, g: QFunctor) -> QFunctor | None:
    """Search an h with h . g isomorphic to f, for fully faithful g.

    Returns the first functor, in the search order of ``all_functors``, that
    sends each y to an object of its type isomorphic to f(x) whenever
    g(x) = y, or None when there is none.  The iso class of f(x) is read
    from Z's hom: the points k of f(x)'s type t with hom(f(x), k) =
    hom(k, f(x)) = the identity on t, in ascending position.  The three
    categories must be valid and symmetric.
    """
    if f.domain != g.domain:
        raise ShapeMismatchError("f and g must share their domain")
    for cat in (f.domain, f.codomain, g.codomain):
        _require_symmetric(cat)
    if not _fully_faithful(g):
        raise PreconditionError("g must be fully faithful")

    y_cat, z_cat = g.codomain, f.codomain
    z_types, z_hom = z_cat.objects.types, z_cat.hom.entries
    # required[y]: the iso class of f(x) for the x with g(x) = y
    required: dict[int, tuple[int, ...]] = {}
    for y, z in zip(g.assignment, f.assignment):
        one = z_cat.quantaloid.identity(z_types[z])
        iso = tuple(k for k in _of_type(z_cat, z_types[z]) if z_hom[z][k] == one == z_hom[k][z])
        required[y] = iso
    pools = [
        required[y] if y in required else _of_type(z_cat, t)
        for y, t in enumerate(y_cat.objects.types)
    ]
    found = next(_functor_search(y_cat, z_cat, pools), None)
    return None if found is None else QFunctor(y_cat, z_cat, found)


def _fresh_name(c: QCategory) -> str:
    """The first of y0, y0', y0'', ... that is not an object of c."""
    name = "y0"
    while name in c.names:
        name += "'"
    return name


def one_point_extensions(c: QCategory) -> Iterator[QCategory]:
    """All symmetric supercategories with exactly one extra point.

    Order: new-point types in element load order, columns lexicographic.

    The extensions are the ambient presheaves of c: a point y of type q
    with hom(-, y) = mu and hom(y, -) = mu deg makes a valid category
    exactly when mu is a presheaf with mu deg . mu <= hom.  Each
    transitivity triple through y is one of those two laws: (x, y, z) is
    admissibility; (x, z, y) is the distributor law, and so is (y, x, z),
    by the symmetry of c and the involution; (y, x, y) holds because the
    quantale is integral; the rest are identity laws.  Each extension comes
    back marked valid and symmetric, so ``_require_symmetric`` does not
    check it.  Symmetry holds by construction: c is checked symmetric on
    entry, the new row is the involute of the new column, and the new
    diagonal entry is the identity of a type q that the involution fixes.
    """
    _require_symmetric(c)
    yield from _extensions(c, _fresh_name(c))


def _extensions(c: QCategory, new_name: str) -> Iterator[QCategory]:
    """The one-point extensions of the valid symmetric c, marked, in the
    order of ``one_point_extensions``; c is not checked here.  Only the
    ambient columns are built, and none is validated again."""
    dq = c.quantaloid
    carriers = {
        q: TypedSet(dq, c.names + (new_name,), c.objects.types + (q,)) for q in dq.objects()
    }
    for q, column in enumerate_ambient(c):
        extended = _extend_matrix(c, carriers[q], column)
        _mark_symmetric(extended)
        yield extended


def _extend_matrix(c: QCategory, carrier: TypedSet, column: Sequence) -> QCategory:
    """c and the last point of ``carrier``, whose hom column is ``column``."""
    dq = c.quantaloid
    entries = tuple(row + (u,) for row, u in zip(c.hom.entries, column))
    entries += (tuple(dq.involve(u) for u in column) + (dq.identity(carrier.types[-1]),),)
    return QCategory(carrier, QRelation._trusted(carrier, carrier, entries))


def find_one_point_retraction(x_cat: QCategory, y_cat: QCategory) -> QFunctor | None:
    """A functor Y -> X restricting to the identity on X, if one exists.

    The search of ``all_functors``, with each point of X its own only
    candidate and the extra point free among the points of X of its type.
    """
    _require_symmetric(x_cat)
    _require_symmetric(y_cat)
    position = {name: k for k, name in enumerate(y_cat.names)}
    at = [position.get(name) for name in x_cat.names]  # each X point's place in Y
    if len(y_cat) != len(x_cat) + 1 or None in at:
        raise ShapeMismatchError(
            "the supercategory must contain exactly one extra point"
        )
    x_types, y_types = x_cat.objects.types, y_cat.objects.types
    x_hom, y_hom = x_cat.hom.entries, y_cat.hom.entries
    for i, (name, k) in enumerate(zip(x_cat.names, at)):
        if x_types[i] != y_types[k]:
            raise ShapeMismatchError(f"types disagree at {name!r}")
        for j, other in enumerate(x_cat.names):
            if x_hom[i][j] != y_hom[k][at[j]]:
                raise ShapeMismatchError(
                    f"homs disagree at ({name!r}, {other!r}); not a supercategory"
                )
    pools = [None] * len(y_cat)
    for i, k in enumerate(at):
        pools[k] = (i,)
    y0 = pools.index(None)
    pools[y0] = _of_type(x_cat, y_types[y0])
    found = next(_functor_search(y_cat, x_cat, pools), None)
    return None if found is None else QFunctor(y_cat, x_cat, found)


# -- density and essentiality --------------------------------------------------


def is_dense(f: QFunctor) -> bool:
    """hom_Y = graph <swarrow> graph."""
    gr = graph(f)
    return rel_residual("left", gr, gr) == f.codomain.hom


def is_codense(f: QFunctor) -> bool:
    """hom_Y = cograph <searrow> cograph."""
    co = cograph(f)
    return rel_residual("right", co, co) == f.codomain.hom


@dataclass(frozen=True)
class EssentialResult:
    essential: bool
    counterexample: tuple[QCategory, QFunctor] | None
    categories_checked: int


def _canonical_signature(c: QCategory, marked: frozenset = frozenset()) -> tuple:
    """The least (types, row-major hom) over all relabellings of the points:
    equal exactly for isomorphic categories, of any size.  The least types
    are the sorted ones, so only the relabellings that sort them are tried.

    With a non-empty set of ``marked`` point positions, each type becomes
    the pair (type, marked or not), so the marks split the type blocks and
    the signature is equal exactly when an isomorphism of the categories
    carries one marked set onto the other.  Unmarked, the value is the
    plain one above."""
    types, entries = c.objects.types, c.hom.entries
    if marked:
        types = tuple((t, k in marked) for k, t in enumerate(types))
    blocks = [[i for i, t in enumerate(types) if t == s] for s in sorted(set(types))]
    perms = itertools.product(*map(itertools.permutations, blocks))
    return tuple(sorted(types)), min(
        tuple(entries[i][j] for i in perm for j in perm)
        for perm in (sum(block_perms, ()) for block_perms in perms)
    )


def enumerate_symmetric_categories(
    dq: DiagonalQuantaloid,
    max_objects: int,
) -> Iterator[QCategory]:
    """Every valid symmetric category with at most max_objects points,
    each marked valid and symmetric.

    Deterministic order: size ascending, diagonal types lexicographic in
    element load order, then upper-triangle entries lexicographic in
    row-major pair order.

    Level 0 is the empty category, the only one ``validate_category``
    checks, and level n + 1 is the one-point extensions of level n (one per
    ambient presheaf), whose new last point is ``x{n}``.
    Every valid (n + 1)-point category arises exactly once, from its full
    subcategory on the first n points.  Sorting a level by types and
    row-major hom gives the order above: ``objects()`` and ``hom()`` list
    payloads in ascending element index, and the types and the upper
    triangle fix the diagonal and the lower triangle.
    """
    carrier = TypedSet(dq, (), ())
    level = [QCategory(carrier, QRelation(carrier, carrier, ()))]
    _require_symmetric(level[0])
    for n in range(max_objects + 1):
        yield from level
        if n < max_objects:
            new_name = f"x{n}"
            level = sorted(
                (ext for c in level for ext in _extensions(c, new_name)),
                key=lambda c: (c.objects.types, c.hom.entries),
            )


def is_essential_bruteforce(f: QFunctor, max_objects: int = 4) -> EssentialResult:
    """Test essentiality by brute force over small receiving categories.

    Walks the symmetric categories Z with at most |codomain| points, up to
    relabeling (the first of each isomorphism class), and every functor g
    out of the codomain, and checks that g is fully faithful whenever the
    composite g . f is.  Refuses when |codomain| + 1, the bound of the
    receivers that essentiality quantifies over, exceeds ``max_objects``.

    Because f is fully faithful, hom_X(x, x') = hom_Y(fx, fx'), so g . f is
    fully faithful exactly when g preserves the homs between the points of
    f(X).  For each receiver in turn, the functor search yields just those
    g, in the order of ``all_functors``, and the first that is not fully
    faithful is the counterexample; no composite is formed.

    The image lemma: receivers of at most |codomain| points suffice.  Let
    g : Y -> Z be a functor, W the full subcategory of Z on g(Y) and
    g' : Y -> W the same map with its codomain cut down to W.  That g is a
    functor, that g . f is fully faithful and that g is fully faithful each
    read only the homs of Z between points of g(Y), which are W's; so g' is
    a counterexample exactly when g is.  W is valid and symmetric, as a full
    subcategory of Z, with |W| <= |Y| points, so it is isomorphic to a
    receiver, and the isomorphism carries g' to a counterexample into it.
    The receivers come by size, the first of each class in enumeration
    order, so the classes of at most |Y| points are the first ones of the
    list with |Y| + 1 points: the walk over them finds the same first
    counterexample at the same position, and finds none exactly when the
    longer walk does.  In the essential case ``categories_checked`` is the
    number of receivers of at most |Y| points.

    f must be fully faithful (``is_fully_faithful``, with its cross-check)
    and both its ends valid and symmetric.  The test that a g of the search
    is fully faithful compares the homs pointwise.

    One memo lives on the kernel ``f.domain.quantaloid``, so it lasts as
    long as its quantale.  Under ``"receivers"`` it holds one list of the
    receiving categories, by size, each with its points' indices by type,
    the pools of the search, and the end offset of each size; a call takes
    the prefix of its size, and the list is built again, with the same
    order, only when a call needs a larger size.  Under ("reachable", size,
    codomain types) it holds the positions in that prefix of the receivers
    that have every one of those types, the only ones a functor can reach.
    """
    if not is_fully_faithful(f):
        raise PreconditionError("essentiality is only defined for fully faithful functors")
    _require_symmetric(f.domain)
    _require_symmetric(f.codomain)
    cod = f.codomain
    size = len(cod)
    if size + 1 > max_objects:
        raise BoundExceededError(
            f"would need categories of size {size + 1}, above the bound {max_objects}"
        )
    dq = f.domain.quantaloid
    memo = dq._essentiality
    receivers, ends = memo.get("receivers", ((), ()))
    if len(ends) <= size:
        classes: dict = {}
        for z_cat in enumerate_symmetric_categories(dq, size):
            classes.setdefault(_canonical_signature(z_cat), z_cat)
        receivers = tuple(
            (z_cat, {t: _of_type(z_cat, t) for t in z_cat.objects.types})
            for z_cat in classes.values()
        )
        ends = tuple(sum(len(z_cat) <= n for z_cat in classes.values()) for n in range(size + 1))
        memo["receivers"] = receivers, ends
    hom, types = cod.hom.entries, cod.objects.types
    image = set(f.assignment)
    needed = frozenset(types)
    reachable = memo.get(("reachable", size, needed))
    if reachable is None:
        # a receiver lacking a type of the codomain takes no functor
        reachable = memo[("reachable", size, needed)] = tuple(
            k for k in range(ends[size]) if receivers[k][1].keys() >= needed
        )
    for k in reachable:
        z_cat, by_type = receivers[k]
        pools = [by_type[t] for t in types]
        z_hom = z_cat.hom.entries
        for g in _functor_search(cod, z_cat, pools, image):
            if any(row[j] != z_hom[a][b] for row, a in zip(hom, g) for j, b in enumerate(g)):
                return EssentialResult(False, (z_cat, QFunctor(cod, z_cat, g)), k + 1)
    return EssentialResult(True, None, ends[size])


# -- transport along dense embeddings -------------------------------------------


@dataclass(frozen=True)
class TransportResult:
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def tight_span_restriction(f: QFunctor, domain_span: TightSpan) -> TransportResult:
    """Precompose tight presheaves on the codomain with the graph of f.

    For dense fully faithful f the images are tight on the domain and the
    assignment is a bijective isometry between the two tight spans; any
    violation is reported rather than raised.  Other functors are refused.
    ``domain_span`` is the tight span of f's domain, which the caller has
    already built; a span of another category is refused.
    """
    if domain_span.base != f.domain:
        raise ShapeMismatchError("domain_span is not the tight span of the domain")
    if not is_fully_faithful(f) or not is_dense(f):
        raise PreconditionError("transport needs a dense fully faithful functor")
    dq = f.domain.quantaloid
    dom, cod = f.domain, f.codomain
    span_cod = tight_span(cod)
    cod_hom = cod.hom.entries
    gr = [cod_hom[a] for a in f.assignment]  # the rows of f's graph
    dom_types = dom.objects.types
    cod_types = cod.objects.types
    # image k at x: the join over y of lam_k(y) . hom_Y(f x, y)
    images = [
        (q, tuple(dq.hom_join(t, q, map(dq.compose, row, cod_types, lam))
                  for t, row in zip(dom_types, gr)))
        for q, lam in span_cod.members
    ]

    failures: list[str] = []
    image_keys = []
    kept = []  # the indices in span_cod of the members whose image is kept
    for k, (image, tight) in enumerate(zip(images, _tight_equation(dom, images))):
        if not tight:
            failures.append(f"image of {span_cod.category.names[k]} is not tight on the domain")
            continue
        image_keys.append(image)
        kept.append(k)

    if len(set(image_keys)) != len(image_keys):
        failures.append("transport is not injective")
    if set(image_keys) != set(domain_span.members):
        failures.append("transport is not onto the domain tight span")
    span_hom = span_cod.category.hom.entries
    kept_hom = tuple(tuple(span_hom[i][j] for j in kept) for i in kept)
    if dq.residual_matrix(image_keys, image_keys) != kept_hom:
        failures.append("transport is not an isometry")
    return TransportResult(tuple(failures))
