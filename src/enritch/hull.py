"""Tight spans, hypercompleteness, injectivity and density checks.

For a symmetric category X the ambient set consists of the presheaves mu
with mu deg . mu <= hom; the tight ones additionally satisfy
mu deg = hom <swarrow> mu and are exactly the maximal ambient presheaves.
The tight span collects all tight presheaves into a new symmetric category
whose hom is the presheaf-category hom.

Hypercompleteness asks every self-compatible column to admit a witness
object.  Because the admissible columns of a fixed type form a
downward-closed set whose maximal elements are exactly the tight columns,
it suffices to search witnesses for tight columns only; this reduction is
what makes the exhaustive checks below tractable, and the test suite
cross-validates it against the naive all-columns scan on small instances.

The tight columns themselves come from one depth-first search
(``_enumerate_tight_columns``) that carries the running residual
hom <swarrow> mu of the coordinates fixed so far and cuts every prefix
whose residual, completed at the greatest candidates, already exceeds
what a tight column allows.  The cut is sound because <swarrow> is antitone
in mu: no completion can bring the residual back down.  Its cost therefore
follows the prefixes that can still end tight, not the admissible set, and
those can be many more than the columns found.  The tight span of a tight
span has only its Yoneda columns, yet it is not cheap.  Over nilmin5, the
search over a 10-object span visits 383 nodes for its 10 columns and the one
over the 13-object span 2,318 nodes for 13 columns; at bound 2 the ``l43``
and ``t44`` suites visit 6,363 and 7,173 nodes in all for 595 and 890
columns.  The search runs on the diagonal kernel's lookup tables, so a node
costs a few tuple lookups per object; it still takes about 47 % of ``verify
t44`` on nilmin5 at bound 3 under cProfile, nearly all of it under
``tight_span_restriction``.

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
from dataclasses import dataclass
from typing import Iterator, Sequence

from .categories import (
    Presheaf,
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
    presheaf_hom,
    require_functor,
    underlying_order,
    validate_category,
    validate_functor,
    yoneda,
)
from .diagonals import DiagonalQuantaloid
from .errors import BoundExceededError, InvariantError, PreconditionError, ShapeMismatchError
from .relations import QRelation, TypedSet, rel_residual

__all__ = [
    "is_ambient",
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
    "functor_compose",
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


def column_admissible(c: QCategory, q, values: Sequence) -> bool:
    """mu deg . mu <= hom for a raw column of type q (no distributor needed)."""
    dq = c.quantaloid
    types = c.objects.types
    hom = c.hom.entries
    n = len(types)
    for x in range(n):
        for z in range(n):
            composed = dq.compose(values[x], q, dq.involve(values[z]))
            if not dq.leq(composed, hom[x][z]):
                return False
    return True


def is_ambient(c: QCategory, mu: Presheaf) -> bool:
    """Membership of the ambient set: an admissible presheaf."""
    if mu.base != c:
        raise ShapeMismatchError("presheaf does not live on this category")
    return column_admissible(c, mu.q, mu.values)


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


def _chain_bound(c: QCategory, q) -> int:
    """Steps bounding a strictly monotone chain of type-q columns, whose
    coordinate z moves at most len(hom(|z|, q)) - 1 times."""
    dq = c.quantaloid
    return sum(len(dq.hom(t, q)) for t in c.objects.types) + 1


def is_tight_column(c: QCategory, q, values: Sequence) -> bool:
    """mu deg = hom <swarrow> mu for a raw column; such a column is
    automatically a presheaf (checked)."""
    dq = c.quantaloid
    residual = _tight_residual(c, q, values)
    holds = all(
        dq.involve(values[z]) == residual[z] for z in range(len(values))
    )
    if holds and not _distributor_holds(c, q, values):
        raise InvariantError("a column satisfying the tight equation must be a presheaf")
    return holds


# -- tight span -------------------------------------------------------------


def _enumerate_tight_columns(c: QCategory, q) -> Iterator[tuple]:
    """All tight columns of type q, in lexicographic hom order.

    The search runs on the finite kernel's tables (``column_tables``): a
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

    meet, leq, involve, top, limpl, hom_meet = dq.column_tables(q)
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

    yield from walk(0, floor[n])


@dataclass(frozen=True)
class TightSpan:
    """The tight presheaves of a symmetric category, also viewed as a category."""

    base: QCategory
    members: tuple[Presheaf, ...]
    category: QCategory

    def yoneda_embedding(self) -> QFunctor | None:
        """The functor x |-> hom(-, x) from the base into the span, or None
        when some Yoneda column is not a member."""
        names = {
            (mu.q, mu.values): name for mu, name in zip(self.members, self.category.names)
        }
        columns = (yoneda(self.base, x) for x in self.base.names)
        assignment = tuple(names.get((mu.q, mu.values)) for mu in columns)
        return None if None in assignment else QFunctor(self.base, self.category, assignment)


def tight_span(c: QCategory) -> TightSpan:
    """Enumerate all tight presheaves and materialize them as a category."""
    _require_symmetric(c)
    dq = c.quantaloid
    members: list[Presheaf] = []
    for q in dq.objects():
        for values in _enumerate_tight_columns(c, q):
            members.append(Presheaf(c, q, values))
    names = tuple(f"t{i}" for i in range(len(members)))
    carrier = TypedSet(dq, names, tuple(mu.q for mu in members))
    entries = tuple(
        tuple(presheaf_hom(mu, nu) for nu in members) for mu in members
    )
    category = QCategory(carrier, QRelation(carrier, carrier, entries))
    if not is_symmetric(category):
        raise InvariantError("the tight span must be symmetric")
    report = validate_category(category)
    if not report.valid:
        raise InvariantError(f"the tight span must be a category: {report.to_dict()}")
    return TightSpan(base=c, members=tuple(members), category=category)


# -- hypercompleteness -------------------------------------------------------


@dataclass(frozen=True)
class HypercompleteResult:
    holds: bool
    witness: Presheaf | None
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
    for q in dq.objects():
        for values in _enumerate_tight_columns(c, q):
            checked += 1
            for z in range(n):
                if strict and types[z] != q:
                    continue
                if all(dq.leq(values[x], hom[x][z]) for x in range(n)):
                    break
            else:
                return HypercompleteResult(False, Presheaf(c, q, values), checked)
    return HypercompleteResult(True, None, checked)


# -- extensions and retractions ----------------------------------------------


def functor_compose(g: QFunctor, f: QFunctor) -> QFunctor:
    if f.codomain != g.domain:
        raise ShapeMismatchError("functors are not composable")
    return QFunctor(f.domain, g.codomain, tuple(g(y) for y in f.assignment))


def full_subcategory(c: QCategory, names: Sequence[str]) -> QCategory:
    """The objects ``names`` of c with the homs of c between them.

    Nothing is validated here.  The result carries the valid-and-symmetric
    mark only when c does: restricting both laws, and the equality of the
    hom with its involute transpose, to a subset of the objects keeps them.
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
    sub = QCategory(carrier, QRelation(carrier, carrier, entries))
    _mark_symmetric(sub, parent=c)
    return sub


def inclusion_functor(sub: QCategory, sup: QCategory) -> QFunctor:
    f = QFunctor(sub, sup, tuple(sub.names))
    require_functor(f)
    return f


def _functor_search(domain: QCategory, codomain: QCategory, pools: Sequence) -> Iterator[QFunctor]:
    """Every valid functor sending the i-th domain object into pools[i] (a
    tuple of codomain names), in lexicographic order over the pools."""
    for assignment in itertools.product(*pools):
        f = QFunctor(domain, codomain, assignment)
        if validate_functor(f).valid:
            yield f


def _of_type(c: QCategory, t) -> tuple[str, ...]:
    return tuple(name for name, s in zip(c.names, c.objects.types) if s == t)


def all_functors(domain: QCategory, codomain: QCategory) -> Iterator[QFunctor]:
    """Every valid functor, in lexicographic assignment order.

    Each object's pool is the codomain objects of its type; ``extend_along``
    and ``find_one_point_retraction`` run the same search on narrower pools.
    """
    pools = []
    for t in domain.objects.types:
        pools.append(_of_type(codomain, t))
        if not pools[-1]:
            return  # an empty pool admits no functor; skip the other pools
    yield from _functor_search(domain, codomain, pools)


def extend_along(f: QFunctor, g: QFunctor) -> QFunctor | None:
    """Search an h with h . g isomorphic to f, for fully faithful g.

    Returns the first functor, in the search order of ``all_functors``, that
    sends each y to an object of its type isomorphic to f(x) whenever
    g(x) = y, or None when there is none.

    The boundary checks stay: f and g must be valid functors and their three
    categories valid and symmetric, which ``_require_symmetric`` trusts for a
    marked category such as a one-point extension.  Once g is known to be a
    functor, its full faithfulness is the pointwise ``_fully_faithful``.
    """
    if f.domain != g.domain:
        raise ShapeMismatchError("f and g must share their domain")
    for cat in (f.domain, f.codomain, g.codomain):
        _require_symmetric(cat)
    require_functor(f)
    require_functor(g)
    if not _fully_faithful(g):
        raise PreconditionError("g must be fully faithful")

    y_cat, z_cat = g.codomain, f.codomain
    iso = underlying_order(z_cat)
    # g(x) may only go to f(x)'s iso class (same type, listed in Z order).
    required_class: dict[str, tuple[str, ...]] = {}
    for y_name, z_name in zip(g.assignment, f.assignment):
        cls = iso.iso_classes[iso.class_index(z_name)]
        if required_class.setdefault(y_name, cls) != cls:
            return None
    pools = [
        required_class[y] if y in required_class else _of_type(z_cat, t)
        for y, t in zip(y_cat.names, y_cat.objects.types)
    ]
    return next(_functor_search(y_cat, z_cat, pools), None)


def _fresh_name(c: QCategory) -> str:
    """The first of y0, y0', y0'', ... that is not an object of c."""
    name = "y0"
    while name in c.names:
        name += "'"
    return name


def one_point_extensions(c: QCategory) -> Iterator[QCategory]:
    """All symmetric supercategories with exactly one extra point.

    Order: new-point types in element load order, columns lexicographic.

    Each extension passes ``validate_category`` here and comes back marked
    valid and symmetric, so ``_require_symmetric`` does not check it again.
    Symmetry holds by construction: c is checked symmetric on entry, the
    new row is the involute of the new column, and the new diagonal entry is
    the identity of a type q that the involution fixes.
    """
    _require_symmetric(c)
    dq = c.quantaloid
    new_name = _fresh_name(c)
    types = c.objects.types
    n = len(types)
    for q in dq.objects():
        for column in itertools.product(*(dq.hom(types[x], q) for x in range(n))):
            extended = _extend_matrix(c, q, column, new_name)
            if validate_category(extended).valid:
                _mark_symmetric(extended)
                yield extended


def _extend_matrix(c: QCategory, q, column: Sequence, new_name: str) -> QCategory:
    dq = c.quantaloid
    carrier = TypedSet(
        dq, c.names + (new_name,), c.objects.types + (q,)
    )
    n = len(c)
    entries = tuple(
        tuple(c.hom.entries[i][j] for j in range(n)) + (column[i],)
        for i in range(n)
    ) + (tuple(dq.involve(column[i]) for i in range(n)) + (dq.identity(q),),)
    return QCategory(carrier, QRelation(carrier, carrier, entries))


def find_one_point_retraction(x_cat: QCategory, y_cat: QCategory) -> QFunctor | None:
    """A functor Y -> X restricting to the identity on X, if one exists.

    The search of ``all_functors``, with each point of X its own only
    candidate and the extra point free among the points of X of its type.
    """
    _require_symmetric(x_cat)
    _require_symmetric(y_cat)
    extra = [name for name in y_cat.names if name not in x_cat.names]
    if len(extra) != 1 or len(y_cat) != len(x_cat) + 1:
        raise ShapeMismatchError(
            "the supercategory must contain exactly one extra point"
        )
    for name in x_cat.names:
        if x_cat.type_payload(name) != y_cat.type_payload(name):
            raise ShapeMismatchError(f"types disagree at {name!r}")
        for other in x_cat.names:
            if x_cat.hom.at(name, other) != y_cat.hom.at(name, other):
                raise ShapeMismatchError(
                    f"homs disagree at ({name!r}, {other!r}); not a supercategory"
                )
    y0 = extra[0]
    y0_pool = _of_type(x_cat, y_cat.type_payload(y0))
    pools = [y0_pool if name == y0 else (name,) for name in y_cat.names]
    return next(_functor_search(y_cat, x_cat, pools), None)


# -- density and essentiality --------------------------------------------------


def is_dense(f: QFunctor) -> bool:
    """hom_Y = graph <swarrow> graph."""
    require_functor(f)
    gr = graph(f)
    return rel_residual("left", gr, gr) == f.codomain.hom


def is_codense(f: QFunctor) -> bool:
    """hom_Y = cograph <searrow> cograph."""
    require_functor(f)
    co = cograph(f)
    return rel_residual("right", co, co) == f.codomain.hom


@dataclass(frozen=True)
class EssentialResult:
    essential: bool
    counterexample: tuple[QCategory, QFunctor] | None
    categories_checked: int


def _canonical_signature(types: tuple, entries: tuple) -> tuple:
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


def enumerate_symmetric_categories(
    dq: DiagonalQuantaloid,
    max_objects: int,
    name_prefix: str = "x",
    up_to_iso: bool = False,
) -> Iterator[QCategory]:
    """Every valid symmetric category with at most max_objects points.

    Deterministic order: size ascending, diagonal types lexicographic in
    element load order, then upper-triangle entries lexicographic.  With
    ``up_to_iso`` relabelings of the points are emitted only once.
    """
    objects = dq.objects()
    seen: set = set()
    for n in range(max_objects + 1):
        names = tuple(f"{name_prefix}{i}" for i in range(n))
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
                    sig = (n, _canonical_signature(types, matrix))
                    if sig in seen:
                        continue
                    seen.add(sig)
                carrier = TypedSet(dq, names, types)
                cat = QCategory(carrier, QRelation(carrier, carrier, matrix))
                if validate_category(cat).valid:
                    yield cat


def is_essential_bruteforce(f: QFunctor, max_objects: int = 4) -> EssentialResult:
    """Test essentiality by brute force over small receiving categories.

    Enumerates symmetric categories Z with at most |codomain| + 1 objects
    (up to relabeling) and every functor g out of the codomain, and checks
    that g is fully faithful whenever the composite g . f is.  Refuses when
    the implied bound exceeds ``max_objects``.

    Two memos live on the kernel ``f.domain.quantaloid``, so they last as
    long as its quantale: the receiving categories, keyed on the object
    bound, and for each codomain (keyed on the category itself) the
    functors g that are not fully faithful, with the index of their Z.
    A call then composes only those g with f.

    Only the entry checks validate: ``is_fully_faithful(f)`` refuses an
    invalid f and cross-checks its answer, and both ends of f must be valid
    and symmetric.  The inner loops trust what they test, since every g
    comes out of the validating functor search and g . f composes two valid
    functors, and use the pointwise ``_fully_faithful``.
    """
    if not is_fully_faithful(f):
        raise PreconditionError("essentiality is only defined for fully faithful functors")
    _require_symmetric(f.domain)
    _require_symmetric(f.codomain)
    z_bound = len(f.codomain) + 1
    if z_bound > max_objects:
        raise BoundExceededError(
            f"would need categories of size {z_bound}, above the bound {max_objects}"
        )
    cod = f.codomain
    dq = f.domain.quantaloid
    memo = dq._essentiality
    receivers = memo.get(("receivers", z_bound))
    if receivers is None:
        receivers = memo[("receivers", z_bound)] = tuple(
            enumerate_symmetric_categories(dq, z_bound, name_prefix="z", up_to_iso=True)
        )
    non_full = memo.get(("non_full", cod))
    if non_full is None:
        non_full = memo[("non_full", cod)] = tuple(
            (k, g)
            for k, z_cat in enumerate(receivers)
            for g in all_functors(cod, z_cat)
            if not _fully_faithful(g)
        )
    for k, g in non_full:
        if _fully_faithful(functor_compose(g, f)):
            return EssentialResult(False, (g.codomain, g), k + 1)
    return EssentialResult(True, None, len(receivers))


# -- transport along dense embeddings -------------------------------------------


@dataclass(frozen=True)
class TransportResult:
    pairs: tuple[tuple[Presheaf, Presheaf], ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def tight_span_restriction(f: QFunctor) -> TransportResult:
    """Precompose tight presheaves on the codomain with the graph of f.

    For dense fully faithful f the images are tight on the domain and the
    assignment is a bijective isometry between the two tight spans; any
    violation is reported rather than raised.  Other functors are refused.
    """
    if not is_fully_faithful(f) or not is_dense(f):
        raise PreconditionError("transport needs a dense fully faithful functor")
    dq = f.domain.quantaloid
    dom, cod = f.domain, f.codomain
    span_cod = tight_span(cod)
    gr = graph(f).entries
    dom_types = dom.objects.types
    cod_types = cod.objects.types

    pairs = []
    failures: list[str] = []
    image_keys = []
    for lam in span_cod.members:
        values = tuple(
            dq.hom_join(
                dom_types[x],
                lam.q,
                (
                    dq.compose(gr[x][y], cod_types[y], lam.values[y])
                    for y in range(len(cod))
                ),
            )
            for x in range(len(dom))
        )
        if not is_tight_column(dom, lam.q, values):
            failures.append(
                f"image of {lam.to_dict()} is not tight on the domain"
            )
            continue
        pairs.append((lam, Presheaf(dom, lam.q, values)))
        image_keys.append((lam.q, values))

    span_dom = tight_span(dom)
    if len(set(image_keys)) != len(image_keys):
        failures.append("transport is not injective")
    wanted = {(mu.q, mu.values) for mu in span_dom.members}
    if set(image_keys) != wanted:
        failures.append("transport is not onto the domain tight span")
    for i, (lam_i, img_i) in enumerate(pairs):
        for lam_j, img_j in pairs[i:]:
            if presheaf_hom(lam_i, lam_j) != presheaf_hom(img_i, img_j):
                failures.append("transport is not an isometry")
                break
    return TransportResult(tuple(pairs), tuple(failures))


# -- ambient enumeration (for maximality checks) --------------------------------


def enumerate_ambient(c: QCategory) -> list[Presheaf]:
    """All ambient presheaves, same order as the presheaf enumeration."""
    return [mu for mu in enumerate_presheaves(c) if is_ambient(c, mu)]
