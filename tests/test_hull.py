import gc
import itertools
import random
import weakref
from collections import Counter
from importlib.resources import files

import pytest

import enritch.hull as hull
import enritch.verify as verify
from enritch import fileio
from enritch.categories import (
    QCategory,
    QFunctor,
    _fully_faithful,
    _require_symmetric,
    cograph,
    enumerate_presheaves,
    graph,
    is_fully_faithful,
    is_symmetric,
    validate_category,
)
from enritch.diagonals import FiniteDiagonals, diagonal_quantaloid
from enritch.errors import (
    BoundExceededError,
    InvariantError,
    PreconditionError,
    ShapeMismatchError,
    UnsupportedQuantaleError,
)
from enritch.hull import (
    TightSpan,
    _canonical_signature,
    _chain_bound,
    _enumerate_tight_columns,
    _functor_search,
    _span_memo,
    _tight_columns,
    all_functors,
    column_admissible,
    enumerate_ambient,
    enumerate_symmetric_categories,
    extend_along,
    find_one_point_retraction,
    full_subcategory,
    inclusion_functor,
    is_codense,
    is_dense,
    is_essential_bruteforce,
    is_hypercomplete,
    is_tight_column,
    one_point_extensions,
    tight_span,
    tight_span_restriction,
)
from enritch.parmet import ParMetSpace, to_category
from enritch.quantale import LAWVERE
from enritch.rationals import ExtRat
from enritch.relations import QRelation, TypedSet, rel_compose
from enritch.verify import _maximal_in_ambient, run_suite

from conftest import make_category, random_partial_metric, shipped_quantale, value
from oracles import (
    Presheaf,
    _tight_residual,
    all_pairs_maximal,
    ambient_presheaves,
    cell_distributor_holds,
    essential_over_one_more_point,
    extension_from_presheaf,
    functor_compose,
    grouped_walk_maximal,
    is_ambient,
    isomorphic,
    marked_signature,
    one_more_point_receivers,
    one_object_category,
    per_member_restriction,
    presheaf_hom,
    raw_canonical_signature,
    raw_symmetric_categories,
    reference_all_functors,
    reference_functor_search,
    reference_validate_functor,
    relabel,
    row_tight_columns,
    table_tight_columns,
    t44_single_checked_twice,
    tighten,
    underlying_order,
    yoneda,
)


SHIPPED_AND_SWAP = ["boolean", "luk3", "luk5", "nilmin5", "diamond", "diamond_swap"]


def boolean_setoid(boolean, pattern):
    """pattern[i][j) = '1'/'0'; all points of type 1."""
    n = len(pattern)
    return make_category(
        boolean,
        [f"s{i}" for i in range(n)],
        ["1"] * n,
        [[pattern[i][j] for j in range(n)] for i in range(n)],
    )


def naive_hypercomplete(c, strict):
    """Direct scan over every raw column of every type (oracle)."""
    dq = c.quantaloid
    types = c.objects.types
    hom = c.hom.entries
    n = len(types)
    for q in dq.objects():
        for values in itertools.product(*(dq.hom(t, q) for t in types)):
            if not column_admissible(c, q, values):
                continue
            witnessed = False
            for z in range(n):
                if strict and types[z] != q:
                    continue
                if all(dq.leq(values[x], hom[x][z]) for x in range(n)):
                    witnessed = True
                    break
            if not witnessed:
                return False
    return True


def tight_step(c, q, values):
    """One application of the tightness operator (involution of the residual)."""
    dq = c.quantaloid
    return tuple(dq.involve(r) for r in _tight_residual(c, q, values))


def kernel_call_tight_columns(c, q):
    """The cut search on per-call kernel methods that the table-driven
    search replaced (oracle): the same [lo, hi] narrowing, carried residual
    rows, cut and leaf test, each hom meet and residual one kernel call."""
    dq = c.quantaloid
    types = c.objects.types
    hom = c.hom.entries
    n = len(types)
    if n == 0:
        yield ()
        return

    steps = _chain_bound(c, q)

    def f2_limit(start):
        current = start
        for _ in range(steps):
            nxt = tight_step(c, q, tight_step(c, q, current))
            if nxt == current:
                return current
            current = nxt
        raise InvariantError("squared tightness operator failed to converge")

    lo = f2_limit(tuple(dq.hom_bottom(t, q) for t in types))
    hi = f2_limit(tuple(dq.hom_top(t, q) for t in types))
    domains = [
        tuple(
            v
            for v in dq.hom(types[z], q)
            if dq.leq(lo[z], v) and dq.leq(v, hi[z])
        )
        for z in range(n)
    ]

    limpl, hom_meet, leq, involve = dq.limpl, dq.hom_meet, dq.leq, dq.involve
    floor = [()] * n + [tuple(dq.hom_top(q, t) for t in types)]
    for x in reversed(range(n)):
        floor[x] = tuple(
            hom_meet(q, types[z], (floor[x + 1][z], limpl(q, types[z], hi[x], hom[x][z])))
            for z in range(n)
        )
    ceiling = [involve(v) for v in hi]
    partial = []

    def walk(k, row):
        if k == n:
            if all(ceiling[z] == row[z] for z in range(n)):
                yield tuple(partial)
            return
        t, hom_k, below = types[k], hom[k], floor[k + 1]
        for v in domains[k]:
            vv = involve(v)
            if not leq(vv, hom_meet(q, t, (row[k], limpl(q, t, v, hom_k[k])))):
                continue
            ceiling[k] = vv
            nxt = []
            for z in range(n):
                r = hom_meet(q, types[z], (row[z], limpl(q, types[z], v, hom_k[z])))
                if not leq(hom_meet(q, types[z], (r, below[z])), ceiling[z]):
                    break
                nxt.append(r)
            else:
                partial.append(v)
                yield from walk(k + 1, nxt)
                partial.pop()
        ceiling[k] = involve(hi[k])

    yield from walk(0, floor[n])


def reference_tight_columns(c, q):
    """The tight-column walk the residual search replaced (oracle): the same
    [lo, hi] domains, pairwise admissibility, tightness tested at the leaves."""
    dq = c.quantaloid
    types = c.objects.types
    hom = c.hom.entries
    n = len(types)
    if n == 0:
        yield ()
        return

    def f2_limit(start):
        current = start
        for _ in range(len(dq.quantale.elements) * n * 2 + 4):
            nxt = tight_step(c, q, tight_step(c, q, current))
            if nxt == current:
                return current
            current = nxt
        raise AssertionError("squared tightness operator failed to converge")

    lo = f2_limit(tuple(dq.hom_bottom(t, q) for t in types))
    hi = f2_limit(tuple(dq.hom_top(t, q) for t in types))
    domains = [
        tuple(
            v
            for v in dq.hom(types[z], q)
            if dq.leq(lo[z], v) and dq.leq(v, hi[z])
        )
        for z in range(n)
    ]

    partial = []

    def compatible(z, v):
        vv = dq.involve(v)
        if not dq.leq(dq.compose(v, q, vv), hom[z][z]):
            return False
        for x in range(z):
            if not dq.leq(dq.compose(partial[x], q, vv), hom[x][z]):
                return False
            if not dq.leq(dq.compose(v, q, dq.involve(partial[x])), hom[z][x]):
                return False
        return True

    def walk(z):
        if z == n:
            values = tuple(partial)
            if values == tight_step(c, q, values):
                yield values
            return
        for v in domains[z]:
            if compatible(z, v):
                partial.append(v)
                yield from walk(z + 1)
                partial.pop()

    yield from walk(0)


class TestMembership:
    def test_two_point_metric_tight_and_ambient(self):
        c = make_category(LAWVERE, ["a", "b"], ["0", "0"], [["0", "4"], ["4", "0"]])
        zero = value(LAWVERE, "0")
        val = ExtRat.parse
        assert is_tight_column(c, zero, (val("1"), val("3")))
        assert column_admissible(c, zero, (val("2"), val("3")))
        assert not is_tight_column(c, zero, (val("2"), val("3")))

    def test_yoneda_columns_are_tight(self, boolean, luk3):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                for x in c.names:
                    mu = yoneda(c, x)
                    assert is_ambient(c, mu)
                    assert is_tight_column(c, mu.q, mu.values)

    def test_tight_implies_ambient_presheaf(self, luk3):
        dq = diagonal_quantaloid(luk3)
        for c in enumerate_symmetric_categories(dq, 2):
            span = tight_span(c)
            for q, values in span.members:
                assert is_ambient(c, Presheaf(c, q, values))


class TestTighten:
    def test_fixed_point_unchanged(self, boolean):
        c = boolean_setoid(boolean, [["1", "1"], ["1", "1"]])
        mu = yoneda(c, "s0")
        assert tighten(c, mu).values == mu.values

    def test_indiscrete_boolean_setoid_example(self, boolean):
        c = boolean_setoid(boolean, [["1", "1"], ["1", "1"]])
        zero = value(boolean, "0")
        one = value(boolean, "1")
        mu = Presheaf(c, one, (zero, zero))
        out = tighten(c, mu)
        assert out.values == (one, one)

    def test_every_ambient_presheaf_tightens(self, luk3, boolean):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                for mu in ambient_presheaves(c):
                    out = tighten(c, mu)
                    assert is_tight_column(c, out.q, out.values)
                    assert all(
                        dq.leq(mu.values[i], out.values[i]) for i in range(len(c))
                    )
                    assert tighten(c, out).values == out.values  # idempotent

    def test_non_ambient_rejected(self, boolean):
        c = boolean_setoid(boolean, [["1", "0"], ["0", "1"]])
        one = value(boolean, "1")
        mu = Presheaf(c, one, (one, one))
        assert not is_ambient(c, mu)
        with pytest.raises(PreconditionError):
            tighten(c, mu)


def linear_yoneda_assignment(span):
    """The Yoneda embedding's assignment as a linear scan of the members
    finds it, or None when a Yoneda column is missing."""
    assignment = []
    for x in span.base.names:
        mu = yoneda(span.base, x)
        for k, lam in enumerate(span.members):
            if lam == mu.pair:
                assignment.append(k)
                break
        else:
            return None
    return tuple(assignment)


class TestTightSpan:
    def test_one_point_category_span_contains_yoneda(self, luk3):
        c = make_category(luk3, ["p"], ["1/2"], [["1/2"]])
        span = tight_span(c)
        embedding = span.yoneda_embedding()
        assert embedding is not None
        # the span hom at the image reproduces the identity
        (image,) = embedding.assignment
        assert span.category.hom.entries[image][image] == value(luk3, "1/2")

    @pytest.mark.parametrize(
        "name, bound",
        [("boolean", 3), ("luk3", 3), ("nilmin5", 2), ("diamond", 2), ("diamond_swap", 3)],
    )
    def test_yoneda_embedding_matches_linear_lookup(self, request, name, bound):
        dq = diagonal_quantaloid(request.getfixturevalue(name))
        for c in enumerate_symmetric_categories(dq, bound):
            span = tight_span(c)
            embedding = span.yoneda_embedding()
            assert embedding.domain == c and embedding.codomain == span.category
            assert embedding.assignment == linear_yoneda_assignment(span)

    def test_yoneda_embedding_missing_member(self, luk3):
        c = make_category(luk3, ["p", "q"], ["1", "1"], [["1", "1/2"], ["1/2", "1"]])
        span = tight_span(c)
        image = span.yoneda_embedding().assignment[1]
        kept = [k for k in range(len(span.members)) if k != image]
        smaller = TightSpan(
            c,
            tuple(span.members[k] for k in kept),
            full_subcategory(span.category, [span.category.names[k] for k in kept]),
        )
        assert linear_yoneda_assignment(smaller) is None
        assert smaller.yoneda_embedding() is None

    def test_empty_category_span(self, boolean):
        c = make_category(boolean, [], [], [])
        span = tight_span(c)
        assert len(span.members) == 2  # one empty presheaf per type
        assert is_hypercomplete(span.category).holds

    def test_boolean_setoid_with_two_classes(self, boolean):
        # classes {a, b} and {c}: the embedding collapses a and b
        c = boolean_setoid(
            boolean,
            [["1", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]],
        )
        span = tight_span(c)
        images = {yoneda(c, x).pair for x in c.names}
        assert len(images) == 2
        # frozen from the presheaf-filter oracle: the two class columns of
        # type 1 plus the type-0 bottom column
        oracle = [
            (q, values) for q, values in enumerate_presheaves(c) if is_tight_column(c, q, values)
        ]
        assert len(oracle) == 3
        assert sorted(oracle) == sorted(span.members)
        assert len(span.members) == 3

    def test_span_members_match_presheaf_filter(self, boolean, luk3):
        # oracle: filter the full presheaf enumeration by the tight equation
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                span = tight_span(c)
                expected = [
                    (q, values)
                    for q, values in enumerate_presheaves(c)
                    if is_tight_column(c, q, values)
                ]
                assert sorted(expected) == sorted(span.members)

    def test_lawvere_span_unsupported(self):
        c = make_category(LAWVERE, ["a"], ["0"], [["0"]])
        with pytest.raises(UnsupportedQuantaleError):
            tight_span(c)

    @pytest.mark.parametrize("fixture", SHIPPED_AND_SWAP)
    def test_every_member_passes_the_presheaf_validator(self, request, fixture):
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        members = 0
        for c in enumerate_symmetric_categories(dq, 3):
            for q, values in tight_span(c).members:
                Presheaf(c, q, values)  # refuses a column that is not a presheaf
                members += 1
        assert members

    def test_a_column_breaking_the_distributor_law_is_an_invariant_error(
        self, monkeypatch, boolean
    ):
        c = boolean_setoid(boolean, [["1", "1"], ["1", "1"]])
        zero, one = value(boolean, "0"), value(boolean, "1")
        # hom(s1, s0) . mu(s0) = 1 is not below mu(s1) = 0
        assert not cell_distributor_holds(c, one, (one, zero))
        real = hull._enumerate_tight_columns

        def lying(c, q):
            yield from real(c, q)
            if q == one:
                yield (one, zero)

        monkeypatch.setattr(hull, "_enumerate_tight_columns", lying)
        # An empty memo for the lie: a span an earlier test left in the
        # session kernel's memo would never be searched again, and the lie
        # must not outlive the test.
        monkeypatch.setattr(c.quantaloid, "_spans", {})
        with pytest.raises(InvariantError, match="must be a presheaf"):
            tight_span(c)


class TestTightColumnSearch:
    # (quantale fixture, bound, largest span still compared with the oracle;
    # the oracle takes minutes on the larger lukasiewicz5 spans)
    CASES = [
        ("boolean", 3, None),
        ("luk3", 3, None),
        ("nilmin5", 2, None),
        ("diamond", 2, None),
        ("diamond_swap", 3, None),
        ("luk5", 2, 9),
    ]

    @staticmethod
    def assert_search_matches(dq, bound, span_limit, oracle):
        """The search agrees with ``oracle`` on every base category and on
        its tight span, whose search builds the tight span of a tight span."""
        searches = 0
        for c in enumerate_symmetric_categories(dq, bound):
            targets = [c]
            span = tight_span(c)
            if span_limit is None or len(span.members) <= span_limit:
                targets.append(span.category)
            for target in targets:
                for q in dq.objects():
                    got = list(_enumerate_tight_columns(target, q))
                    assert got == list(oracle(target, q)), (target.to_dict(), dq.format(q))
                    searches += 1
        assert searches > 0

    @pytest.mark.parametrize("fixture, bound, span_limit", CASES, ids=[c[0] for c in CASES])
    def test_matches_the_leaf_testing_walk(self, request, fixture, bound, span_limit):
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        self.assert_search_matches(dq, bound, span_limit, reference_tight_columns)

    @pytest.mark.parametrize("fixture, bound, span_limit", CASES, ids=[c[0] for c in CASES])
    def test_matches_the_kernel_call_search(self, request, fixture, bound, span_limit):
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        self.assert_search_matches(dq, bound, span_limit, kernel_call_tight_columns)

    @pytest.mark.parametrize("fixture, bound, span_limit", CASES, ids=[c[0] for c in CASES])
    def test_matches_the_table_driven_cut_search(self, request, fixture, bound, span_limit):
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        self.assert_search_matches(dq, bound, span_limit, table_tight_columns)

    def test_matches_the_table_driven_cut_search_on_lukasiewicz5_at_bound_3(self, luk5):
        dq = diagonal_quantaloid(luk5)
        searches = 0
        for c in enumerate_symmetric_categories(dq, 3):
            for q in dq.objects():
                got = list(_enumerate_tight_columns(c, q))
                assert got == list(table_tight_columns(c, q)), (c.to_dict(), dq.format(q))
                searches += 1
        assert searches == 1420 * len(dq.objects())

    @pytest.mark.parametrize(
        "fixture, pairs, distinct",
        [
            ("boolean", 138, 48),
            ("luk3", 1053, 438),
            ("luk5", 21300, 11400),
            ("nilmin5", 10335, 4140),
            ("diamond", 3060, 1080),
        ],
    )
    def test_matches_the_row_search_on_spans_of_spans_at_bound_3(
        self, request, fixture, pairs, distinct
    ):
        # every (category, span, span of span, q) at bound 3: 35,886 pairs
        # over the five shipped quantales; the search reads only q, the
        # types and the hom, so each distinct triple is compared once
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        seen = set()
        count = 0
        for c in enumerate_symmetric_categories(dq, 3):
            span = tight_span(c).category
            for target in (c, span, tight_span(span).category):
                for q in dq.objects():
                    count += 1
                    key = (q, target.objects.types, target.hom.entries)
                    if key in seen:
                        continue
                    seen.add(key)
                    got = list(_enumerate_tight_columns(target, q))
                    assert got == list(row_tight_columns(target, q)), (
                        target.to_dict(),
                        dq.format(q),
                    )
        assert (count, len(seen)) == (pairs, distinct)

    # (quantale fixture, bound, one category per isomorphism class)
    SPAN_CASES = [(fixture, bound, False) for fixture, bound, _ in CASES]
    SPAN_CASES.append(("luk5", 3, True))
    SPAN_IDS = [c[0] for c in CASES] + ["luk5-bound3-up-to-iso"]

    @pytest.mark.parametrize("fixture, bound, up_to_iso", SPAN_CASES, ids=SPAN_IDS)
    def test_tight_columns_of_a_tight_span_are_its_yoneda_columns(
        self, request, fixture, bound, up_to_iso
    ):
        # the tight span of a tight span is itself
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        if up_to_iso:
            cats = raw_symmetric_categories(dq, bound, up_to_iso=True)
        else:
            cats = enumerate_symmetric_categories(dq, bound)
        for c in cats:
            s = tight_span(c).category
            found = [
                (q, values) for q in dq.objects() for values in _enumerate_tight_columns(s, q)
            ]
            yonedas = {yoneda(s, x).pair for x in s.names}
            assert len(found) == len(s) == len(yonedas)
            assert set(found) == yonedas, c.to_dict()

    def test_the_discrete_three_point_frontier(self, luk5):
        # Every type 1 and every off-diagonal hom 0: the slowest class of
        # the lukasiewicz5 bound-3 suites, whose span of span a cut
        # depth-first walk took minutes over.
        c = make_category(
            luk5,
            ["a", "b", "c"],
            ["1"] * 3,
            [["1" if i == j else "0" for j in range(3)] for i in range(3)],
        )
        span = tight_span(c)
        assert len(span.members) == 21
        assert is_hypercomplete(span.category).holds
        s = span.category
        dq = s.quantaloid
        found = [(q, values) for q in dq.objects() for values in _enumerate_tight_columns(s, q)]
        assert sorted(found) == sorted(yoneda(s, x).pair for x in s.names)
        assert len(set(found)) == 21

    def test_a_search_leaves_nothing_for_the_cyclic_collector(self, nilmin5):
        # The search's helpers are closures over its frame; none of them may
        # form a reference cycle, whether the search is exhausted or
        # abandoned after its first column, as is_hypercomplete abandons it.
        dq = diagonal_quantaloid(nilmin5)
        c = list(enumerate_symmetric_categories(dq, 2))[-1]
        q = dq.objects()[-1]
        assert list(_enumerate_tight_columns(c, q))

        def exhausted():
            list(_enumerate_tight_columns(c, q))

        def abandoned():
            search = _enumerate_tight_columns(c, q)
            next(search)
            del search

        flags = gc.get_debug()
        gc.collect()
        try:
            for run in (exhausted, abandoned):
                gc.set_debug(gc.DEBUG_SAVEALL)
                run()
                gc.collect()
                gc.set_debug(flags)
                left = [
                    obj
                    for obj in gc.garbage
                    if getattr(obj, "__qualname__", "").startswith("_enumerate_tight_columns")
                ]
                gc.garbage.clear()
                assert left == [], run.__name__
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()


def span_key(c):
    return c.objects.types, c.hom.entries


class TestTightColumnMemo:
    """The kernel's span memo (``_SpanMemo``): entries only for the
    categories ``tight_span`` built, each with its tight columns and its
    own tight span, against ``_enumerate_tight_columns`` and the suites
    run cold."""

    @pytest.mark.parametrize("fixture", SHIPPED_AND_SWAP)
    def test_lookup_matches_the_raw_search_cold_and_warm(self, request, monkeypatch, fixture):
        # every category at bound 3 and its tight span; spans repeat across
        # categories, so a span's first lookup searches (cold) and the later
        # ones read it back (warm); a base category is searched every time
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        monkeypatch.setattr(dq, "_spans", {})  # the session memo comes back after
        cats = list(enumerate_symmetric_categories(dq, 3))
        spans = [tight_span(c).category for c in cats]
        assert set(dq._spans) == {span_key(s) for s in spans}  # no base entries
        # a base category with the hom of an earlier span reads that entry
        # and keeps its own span there
        built = {key for key, memo in dq._spans.items() if memo.span is not None}
        assert built == set(dq._spans) & {span_key(c) for c in cats}
        found = {}
        for target in cats + spans:
            memo = _span_memo(target)
            assert (memo is not None) == (span_key(target) in dq._spans)
            for q in dq.objects():
                columns = _tight_columns(target, q, memo)
                assert list(columns) == list(_enumerate_tight_columns(target, q))
                if memo is not None:
                    assert found.setdefault((span_key(target), q), columns) is columns
        assert set(dq._spans) == {span_key(s) for s in spans}  # lookups add none
        assert len(found) == len(dq._spans) * len(dq.objects()) < len(spans) * len(dq.objects())

    @pytest.mark.parametrize("suite", ["l43", "t44"])
    @pytest.mark.parametrize(
        "name, bound, counts",
        [
            ("lukasiewicz3", 3, {"l43": (174, 46, 13, 1), "t44": (174, 58, 19, 13)}),
            ("nilmin5", 2, {"l43": (215, 34, 9, 0), "t44": (215, 43, 13, 9)}),
        ],
        ids=["lukasiewicz3", "nilmin5"],
    )
    def test_each_distinct_search_runs_once_per_suite(
        self, monkeypatch, suite, name, bound, counts
    ):
        # (searches, span builds, memo entries, entries with their own span)
        # lukasiewicz3: 46 classes and 13 distinct spans, one of which is
        # also a class, so 3 x (46 + 13 - 1) searches; t44 builds each
        # distinct span's span once, 46 + 13 - 1 builds, and keeps the 6
        # spans of spans that are not spans already.  Before the span memo
        # the t44 counts were 174 searches and 92 builds.
        calls = Counter()
        search, validate = hull._enumerate_tight_columns, hull.validate_category

        def counted_search(c, q):
            calls["search"] += 1
            return search(c, q)

        def counted_validate(c):
            calls["build"] += 1
            return validate(c)

        monkeypatch.setattr(hull, "_enumerate_tight_columns", counted_search)
        monkeypatch.setattr(hull, "validate_category", counted_validate)
        quantale = shipped_quantale(name)
        report = run_suite(suite, quantale, bound)
        assert report["result"]
        memo = diagonal_quantaloid(quantale)._spans
        spans = sum(memo.span is not None for memo in memo.values())
        assert (calls["search"], calls["build"], len(memo), spans) == counts[suite]

    @pytest.mark.parametrize(
        "suite, name, bound, strict",
        [
            ("l43", "lukasiewicz3", 3, True),
            ("l43", "lukasiewicz3", 3, False),
            ("l43", "nilmin5", 2, True),
            ("l43", "diamond", 2, False),
            ("t44", "lukasiewicz3", 3, True),
            ("t44", "nilmin5", 2, True),
            ("t36", "lukasiewicz3", 3, False),
        ],
    )
    def test_reports_match_with_the_memo_cleared_before_every_class(
        self, monkeypatch, suite, name, bound, strict
    ):
        warm = run_suite(suite, shipped_quantale(name), bound, strict)
        quantale = shipped_quantale(name)
        memo = diagonal_quantaloid(quantale)._spans
        single = getattr(verify, f"_{suite}_single")
        classes = []

        def cold(*args):
            memo.clear()
            classes.append(args[0])
            return single(*args)

        monkeypatch.setattr(verify, f"_{suite}_single", cold)
        assert run_suite(suite, quantale, bound, strict) == warm
        assert len(classes) > 1

    def test_a_suite_reads_the_searches_another_suite_left(self, monkeypatch):
        quantale = shipped_quantale("lukasiewicz3")
        memo = diagonal_quantaloid(quantale)._spans
        assert run_suite("l43", quantale, 3)["result"]
        left = len(memo)
        calls = Counter()
        search = hull._enumerate_tight_columns

        def counted_search(c, q):
            calls["search"] += 1
            return search(c, q)

        monkeypatch.setattr(hull, "_enumerate_tight_columns", counted_search)
        warm = run_suite("t44", quantale, 3)
        # only the classes' bases are searched, except the one class whose
        # hom is a span's: l43 left every span's columns
        assert calls["search"] == (46 - 1) * 3 < 174
        assert len(memo) > left  # the spans of spans
        assert warm == run_suite("t44", shipped_quantale("lukasiewicz3"), 3)

    def test_a_span_of_a_span_is_built_once_and_based_on_its_argument(self, luk3):
        dq = diagonal_quantaloid(luk3)
        c = make_category(luk3, ["p", "q"], ["1", "1"], [["1", "1/2"], ["1/2", "1"]])
        span = tight_span(c).category
        first = tight_span(span)
        # the same types and hom under other names: read back, not rebuilt
        carrier = TypedSet(dq, tuple(f"u{i}" for i in range(len(span))), span.objects.types)
        renamed = QCategory(carrier, QRelation(carrier, carrier, span.hom.entries))
        second = tight_span(renamed)
        assert second.category is first.category and second.members is first.members
        assert first.base is span and second.base is renamed
        assert second.yoneda_embedding().domain is renamed

    def test_each_load_starts_with_an_empty_memo(self):
        path = files("enritch") / "data" / "lukasiewicz3.json"
        first, second = (diagonal_quantaloid(fileio.load_quantale(path)) for _ in range(2))
        assert first._spans is not second._spans
        assert first._spans == {} == second._spans
        c = next(c for c in enumerate_symmetric_categories(first, 1) if len(c))
        span = tight_span(c).category
        # the span's entry, with nothing searched on it yet; c's search is not kept
        assert list(first._spans) == [span_key(span)]
        assert _span_memo(c) is None
        assert second._spans == {}


class TestHypercomplete:
    def test_empty_category_not_hypercomplete(self, boolean):
        c = make_category(boolean, [], [], [])
        result = is_hypercomplete(c)
        assert not result.holds
        assert result.witness is not None
        assert result.witness[1] == ()

    def test_one_point_type_one_boolean(self, boolean):
        # strict: the type-0 bottom column has no witness of type 0;
        # lax: every column is witnessed elementwise
        dq = diagonal_quantaloid(boolean)
        c = one_object_category(dq, value(boolean, "1"), "p")
        strict = is_hypercomplete(c, strict=True)
        assert not strict.holds
        assert strict.witness == (value(boolean, "0"), (value(boolean, "0"),))
        assert Presheaf(c, *strict.witness).to_dict() == {"type": "0", "values": {"p": "0"}}
        assert is_hypercomplete(c, strict=False).holds

    def test_tight_span_always_hypercomplete(self, boolean, luk3):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                assert is_hypercomplete(tight_span(c).category).holds

    def test_agrees_with_naive_oracle(self, boolean, luk3):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                for strict in (True, False):
                    assert (
                        is_hypercomplete(c, strict=strict).holds
                        == naive_hypercomplete(c, strict)
                    ), (quantale.name, c.to_dict(), strict)

    def test_agrees_with_naive_oracle_at_size_three(self, luk3):
        dq = diagonal_quantaloid(luk3)
        three = [c for c in enumerate_symmetric_categories(dq, 3) if len(c) == 3]
        for c in three[::5]:
            for strict in (True, False):
                assert (
                    is_hypercomplete(c, strict=strict).holds
                    == naive_hypercomplete(c, strict)
                )


def reference_extend_along(f, g):
    """The depth-first search extend_along ran before it shared the search
    of all_functors (oracle): candidates filtered by type and required iso
    class, hom-increasing checked against the points placed so far."""
    y_cat, z_cat = g.codomain, f.codomain
    dq = y_cat.quantaloid
    iso = underlying_order(z_cat)
    required_class = [None] * len(y_cat)
    for y_i, z_i in zip(g.assignment, f.assignment):
        cls = iso.class_index(z_cat.names[z_i])
        if required_class[y_i] is None:
            required_class[y_i] = cls
        elif required_class[y_i] != cls:
            return None

    z_names = z_cat.names
    z_types = z_cat.objects.types
    candidates = []
    for y_i, t in enumerate(y_cat.objects.types):
        pool = tuple(
            j
            for j in range(len(z_names))
            if z_types[j] == t
            and (required_class[y_i] is None or iso.class_index(z_names[j]) == required_class[y_i])
        )
        if not pool:
            return None
        candidates.append(pool)

    y_hom = y_cat.hom.entries
    z_hom = z_cat.hom.entries
    partial = []

    def compatible(y_i, j):
        if not dq.leq(y_hom[y_i][y_i], z_hom[j][j]):
            return False
        for w in range(y_i):
            if not dq.leq(y_hom[w][y_i], z_hom[partial[w]][j]):
                return False
            if not dq.leq(y_hom[y_i][w], z_hom[j][partial[w]]):
                return False
        return True

    def walk(y_i):
        if y_i == len(y_cat):
            return QFunctor(y_cat, z_cat, partial)
        for j in candidates[y_i]:
            if compatible(y_i, j):
                partial.append(j)
                found = walk(y_i + 1)
                if found is not None:
                    return found
                partial.pop()
        return None

    return walk(0)


def reference_retraction(x_cat, y_cat):
    """The loop find_one_point_retraction ran before it shared the search
    of all_functors (oracle): the extra point tried at each X point of its
    type, in X order."""
    (y0,) = [name for name in y_cat.names if name not in x_cat.names]
    target_type = y_cat.objects.types[y_cat.names.index(y0)]
    position = {name: i for i, name in enumerate(x_cat.names)}
    for k, t in enumerate(x_cat.objects.types):
        if t != target_type:
            continue
        assignment = [k if name == y0 else position[name] for name in y_cat.names]
        if reference_validate_functor(y_cat, x_cat, assignment).valid:
            return QFunctor(y_cat, x_cat, assignment)
    return None


def t36_extension_family(x_cat):
    """Every (f, g) pair verify t36 hands to extend_along for x_cat, in its
    order: W = X first, then the proper full subcategories W by size, each
    inclusion W -> X along the inclusion of W into each one-point extension."""
    subs = [x_cat] + [
        full_subcategory(x_cat, names)
        for size in range(len(x_cat))
        for names in itertools.combinations(x_cat.names, size)
    ]
    for sub in subs:
        into_x = inclusion_functor(sub, x_cat)
        for ext in one_point_extensions(sub):
            yield into_x, inclusion_functor(sub, ext)


def widest_required_class(f) -> int:
    """The largest iso class, by the reference order, among the points of f's
    image: the widest pool extend_along gives a point of g's image."""
    order = underlying_order(f.codomain)
    classes = (order.iso_classes[order.class_index(f.codomain.names[z])] for z in f.assignment)
    return max(map(len, classes), default=0)


def same_functor(got, want):
    if want is None:
        return got is None
    return got is not None and got == want and got.as_dict() == want.as_dict()


class TestSharedFunctorSearch:
    """extend_along and find_one_point_retraction against the searches they
    replaced, on every extension problem and retraction verify t36 poses."""

    CASES = [
        ("boolean", 3),
        ("luk3", 3),
        ("nilmin5", 2),
        ("diamond", 2),
        ("diamond_swap", 2),
    ]

    @pytest.mark.parametrize("fixture, bound", CASES, ids=[c[0] for c in CASES])
    def test_matches_the_replaced_searches(self, request, fixture, bound):
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        extensions = retractions = wide = 0
        found = [0, 0]
        for x_cat in enumerate_symmetric_categories(dq, bound):
            for f, g in t36_extension_family(x_cat):
                want = reference_extend_along(f, g)
                assert same_functor(extend_along(f, g), want), (f.as_dict(), g.as_dict())
                extensions += 1
                found[0] += want is not None
                wide += widest_required_class(f) > 1
            for ext in one_point_extensions(x_cat):
                want = reference_retraction(x_cat, ext)
                assert same_functor(find_one_point_retraction(x_cat, ext), want), ext.to_dict()
                retractions += 1
                found[1] += want is not None
        # both outcomes occur, so neither branch is compared vacuously
        assert 0 < found[0] < extensions and 0 < found[1] < retractions
        # some pools are iso classes of several points, as in the indiscrete pair
        assert wide > 0


def assert_search_matches_reference(domain, codomain, pools, equal=()):
    """_functor_search yields the assignments of the product search over the
    same pools of codomain positions, in its order; returns their number."""
    got = list(_functor_search(domain, codomain, pools, equal))
    want = [f.assignment for f in reference_functor_search(domain, codomain, pools, equal)]
    assert got == want, (domain.to_dict(), codomain.to_dict(), pools, sorted(equal))
    return len(got)


class TestFunctorSearch:
    """The pruned search against the product search it replaced, which
    validates every candidate (``reference_functor_search``)."""

    @pytest.mark.parametrize(
        "fixture", ["boolean", "luk3", "luk5", "nilmin5", "diamond", "diamond_swap"]
    )
    def test_every_pair_and_set_of_preserved_positions(self, request, fixture):
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        cats = list(enumerate_symmetric_categories(dq, 2))
        counts = {"none": 0, "all": 0, "partial": 0}
        for x_cat in cats:
            n = len(x_cat)
            subsets = [set(s) for k in range(n + 1) for s in itertools.combinations(range(n), k)]
            for y_cat in cats:
                pools = [
                    tuple(k for k, s in enumerate(y_cat.objects.types) if s == t)
                    for t in x_cat.objects.types
                ]
                for equal in subsets:  # every subset: no domain has more than 2 points
                    found = assert_search_matches_reference(x_cat, y_cat, pools, equal)
                    kind = "none" if not equal else "all" if len(equal) == n else "partial"
                    counts[kind] += found
                # all_functors is the search over these pools, as functors
                want = list(reference_all_functors(x_cat, y_cat))
                assert list(all_functors(x_cat, y_cat)) == want
                assert list(all_functors(x_cat, y_cat, full=True)) == [
                    f for f in want if is_fully_faithful(f)
                ]
        # every kind yields functors, and preserving every hom drops some
        assert min(counts.values()) > 0 and counts["all"] < counts["none"]

    def test_categories_that_are_not_symmetric(self, boolean):
        # every boolean preorder on at most three points: hom(x, y) and
        # hom(y, x) are independent here, so both directions are checked
        preorders = []
        for n in range(4):
            names = [f"p{i}" for i in range(n)]
            off = [(i, j) for i in range(n) for j in range(n) if i != j]
            for bits in itertools.product("01", repeat=len(off)):
                rows = [["1"] * n for _ in range(n)]
                for (i, j), bit in zip(off, bits):
                    rows[i][j] = bit
                c = make_category(boolean, names, ["1"] * n, rows)
                if validate_category(c).valid:
                    preorders.append(c)
        asymmetric = [c for c in preorders if not is_symmetric(c)]
        assert len(asymmetric) > 10
        found = 0
        for x_cat in preorders:
            for y_cat in asymmetric:
                n = len(x_cat)
                pools = [tuple(range(len(y_cat)))] * n
                for equal in ((), set(range(n)), set(range(n)[:1])):
                    found += assert_search_matches_reference(x_cat, y_cat, pools, equal)
        assert found > 0

    def test_a_preserved_position_is_also_checked_on_its_diagonal(self, boolean):
        # the search checks each point against itself; in a valid category
        # the diagonal is the identity, so only an unvalidated input shows it
        point = make_category(boolean, ["a"], ["1"], [["1"]])
        low = make_category(boolean, ["a"], ["1"], [["0"]])
        assert assert_search_matches_reference(low, point, [(0,)]) == 1
        assert assert_search_matches_reference(low, point, [(0,)], {0}) == 0
        assert assert_search_matches_reference(point, low, [(0,)]) == 0

    def test_empty_domain_and_empty_pools(self, boolean):
        empty = make_category(boolean, [], [], [])
        point = make_category(boolean, ["a"], ["1"], [["1"]])
        assert list(_functor_search(empty, point, [])) == [()]
        assert list(_functor_search(point, empty, [()])) == []
        assert list(all_functors(point, empty)) == []

    CASES = TestSharedFunctorSearch.CASES

    @pytest.mark.parametrize("fixture, bound", CASES, ids=[c[0] for c in CASES])
    def test_narrow_pools_of_extensions_and_retractions(self, request, monkeypatch, fixture, bound):
        """Every search extend_along and find_one_point_retraction start,
        run in full on the pools they built."""
        import enritch.hull as hull

        calls = []
        real = hull._functor_search

        def spy(domain, codomain, pools, equal=()):
            calls.append((domain, codomain, pools, equal))
            return real(domain, codomain, pools, equal)

        monkeypatch.setattr(hull, "_functor_search", spy)
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        sizes = set()
        for x_cat in enumerate_symmetric_categories(dq, bound):
            for f, g in t36_extension_family(x_cat):
                extend_along(f, g)
            for ext in one_point_extensions(x_cat):
                find_one_point_retraction(x_cat, ext)
        assert calls
        for domain, codomain, pools, equal in calls:
            assert equal == ()
            sizes.add(assert_search_matches_reference(domain, codomain, pools))
        assert 0 in sizes and len(sizes) > 2  # both outcomes, several sizes


def lawvere_pair():
    """A valid 2-point partial metric as a category over the extended rationals."""
    v = ExtRat.parse
    return to_category(ParMetSpace(("a", "b"), ((v("1"), v("3")), (v("3"), v("2")))))


def identity_functor(c):
    return QFunctor(c, c, range(len(c)))


class TestLawvereInput:
    """Enumeration over the extended rationals is refused by the kernel alone
    (``objects`` and ``hom``); what does not enumerate runs there exactly."""

    REFUSED = {
        "tight_span": tight_span,
        "is_hypercomplete": is_hypercomplete,
        "one_point_extensions": lambda c: list(one_point_extensions(c)),
        "tighten": lambda c: tighten(c, yoneda(c, "a")),
        # the domain's span cannot be built either; a stand-in with no members
        # leaves the refusal to the span of the codomain
        "tight_span_restriction": lambda c: tight_span_restriction(
            identity_functor(c), TightSpan(c, (), c)
        ),
        "is_essential_bruteforce": lambda c: is_essential_bruteforce(identity_functor(c)),
        "enumerate_symmetric_categories": lambda c: list(
            enumerate_symmetric_categories(c.quantaloid, 2)
        ),
        # both walks are lazy: the refusal comes before the first column
        "enumerate_presheaves": lambda c: next(enumerate_presheaves(c)),
        "enumerate_ambient": lambda c: next(enumerate_ambient(c)),
    }

    @pytest.mark.parametrize("entry", sorted(REFUSED))
    def test_enumerating_entry_points_refuse(self, entry):
        with pytest.raises(UnsupportedQuantaleError):
            self.REFUSED[entry](lawvere_pair())

    @pytest.mark.parametrize("seed", range(6))
    def test_extend_along_matches_the_reference(self, seed):
        rng = random.Random(seed)
        # few self-distances, so points often share a type and the pools overlap
        x_cat = to_category(random_partial_metric(rng, 3, max_self=2, denominators=(1,)))
        subs = [
            full_subcategory(x_cat, names)
            for size in range(len(x_cat) + 1)
            for names in itertools.combinations(x_cat.names, size)
        ]
        for w in subs:
            f = inclusion_functor(w, x_cat)
            for v in subs:
                if set(w.names) <= set(v.names):
                    g = inclusion_functor(w, v)
                    want = reference_extend_along(f, g)
                    assert want is not None  # the inclusion of v extends f
                    assert same_functor(extend_along(f, g), want), (w.names, v.names)


class TestExtensions:
    def test_extend_along_identity_embedding(self, boolean):
        c = boolean_setoid(boolean, [["1", "1"], ["1", "1"]])
        f = QFunctor(c, c, (0, 1))
        h = extend_along(f, f)
        assert h is not None
        assert h.assignment in ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_extension_into_hypercomplete_always_succeeds(self, boolean, luk3):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            cats = list(enumerate_symmetric_categories(dq, 2))
            hyper = [c for c in cats if is_hypercomplete(c).holds]
            for z_cat in hyper:
                for x_cat in cats:
                    for f in all_functors(x_cat, z_cat):
                        for y_cat in one_point_extensions(x_cat):
                            g = inclusion_functor(x_cat, y_cat)
                            h = extend_along(f, g)
                            assert h is not None
                            # verify h . g isomorphic to f
                            order = underlying_order(z_cat)
                            hg = functor_compose(h, g)
                            assert all(
                                isomorphic(order, z_cat.names[a], z_cat.names[b])
                                for a, b in zip(hg.assignment, f.assignment)
                            )

    def test_failure_into_empty_category(self, boolean):
        empty = make_category(boolean, [], [], [])
        point = boolean_setoid(boolean, [["1"]])
        f = QFunctor(empty, empty, ())
        g = QFunctor(empty, point, ())
        assert extend_along(f, g) is None

    def test_non_fully_faithful_g_rejected(self, boolean):
        c = boolean_setoid(boolean, [["1", "0"], ["0", "1"]])
        p = boolean_setoid(boolean, [["1"]])
        f = QFunctor(c, c, (0, 1))
        g = QFunctor(c, p, (0, 0))
        with pytest.raises(PreconditionError):
            extend_along(f, g)


class TestOnePointRetractions:
    def test_hypercomplete_retracts_off_every_extension(self, boolean, luk3):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                if not is_hypercomplete(c).holds:
                    continue
                for ext in one_point_extensions(c):
                    assert find_one_point_retraction(c, ext) is not None

    def test_witness_extension_fails_for_non_hypercomplete(self, boolean, luk3):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                result = is_hypercomplete(c)
                if result.holds:
                    continue
                ext = extension_from_presheaf(c, Presheaf(c, *result.witness))
                assert find_one_point_retraction(c, ext) is None

    def test_equal_categories_rejected(self, boolean):
        c = boolean_setoid(boolean, [["1"]])
        from enritch.errors import ShapeMismatchError

        with pytest.raises(ShapeMismatchError):
            find_one_point_retraction(c, c)


class TestDensity:
    def test_identity_dense(self, luk3):
        c = make_category(
            luk3, ["a", "b"], ["1", "1"], [["1", "1/2"], ["1/2", "1"]]
        )
        f = QFunctor(c, c, (0, 1))
        assert is_dense(f)
        assert is_codense(f)

    def test_point_into_indiscrete_setoid_dense(self, boolean):
        pair = boolean_setoid(boolean, [["1", "1"], ["1", "1"]])
        point = full_subcategory(pair, ["s0"])
        f = inclusion_functor(point, pair)
        assert is_dense(f)

    def test_point_into_discrete_setoid_not_dense(self, boolean):
        pair = boolean_setoid(boolean, [["1", "0"], ["0", "1"]])
        point = full_subcategory(pair, ["s0"])
        f = inclusion_functor(point, pair)
        assert not is_dense(f)

    def test_dense_iff_codense_for_symmetric_codomains(self, boolean, luk3):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            cats = list(enumerate_symmetric_categories(dq, 2))
            for x_cat in cats:
                for y_cat in cats:
                    for f in all_functors(x_cat, y_cat):
                        assert is_dense(f) == is_codense(f)

    def test_dense_embedding_columns_are_tight(self, boolean):
        # graph columns of a dense fully faithful functor are tight
        dq = diagonal_quantaloid(boolean)
        cats = list(enumerate_symmetric_categories(dq, 2))
        checked = 0
        for x_cat in cats:
            for y_cat in cats:
                for f in all_functors(x_cat, y_cat):
                    if not (is_fully_faithful(f) and is_dense(f)):
                        continue
                    gr = graph(f).entries
                    for j, name in enumerate(y_cat.names):
                        column = tuple(gr[i][j] for i in range(len(x_cat)))
                        assert is_tight_column(
                            x_cat, y_cat.objects.types[j], column
                        )
                        checked += 1
        assert checked > 10


class TestEssential:
    def test_identity_essential(self, boolean):
        c = boolean_setoid(boolean, [["1", "0"], ["0", "1"]])
        f = QFunctor(c, c, range(len(c)))
        assert is_essential_bruteforce(f).essential

    def test_non_dense_embedding_has_counterexample(self, boolean):
        pair = boolean_setoid(boolean, [["1", "0"], ["0", "1"]])
        point = full_subcategory(pair, ["s0"])
        f = inclusion_functor(point, pair)
        result = is_essential_bruteforce(f)
        assert not result.essential
        assert result.counterexample is not None
        z_cat, g = result.counterexample
        assert is_fully_faithful(functor_compose(g, f))
        assert not is_fully_faithful(g)

    def test_bound_refusal(self, boolean):
        c = boolean_setoid(
            boolean, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        )
        f = QFunctor(c, c, range(len(c)))
        with pytest.raises(BoundExceededError):
            is_essential_bruteforce(f, max_objects=3)


def reference_essential(f, receivers=None):
    """The unmemoised loop over every receiving category and every functor
    of the product search, composing each with f (oracle).  ``receivers``,
    when given, is the raw up-to-iso list of the categories with at most
    |codomain| + 1 points, built once by the caller."""
    if receivers is None:
        receivers = raw_symmetric_categories(
            f.domain.quantaloid, len(f.codomain) + 1, up_to_iso=True
        )
    checked = 0
    for z_cat in receivers:
        checked += 1
        for g in reference_all_functors(f.codomain, z_cat):
            if is_fully_faithful(functor_compose(g, f)) and not is_fully_faithful(g):
                return False, (z_cat.to_dict(), g.as_dict()), checked
    return True, None, checked


def essential_summary(result):
    counterexample = None
    if result.counterexample is not None:
        z_cat, g = result.counterexample
        counterexample = (z_cat.to_dict(), g.as_dict())
    return result.essential, counterexample, result.categories_checked


def walked_summary(want, receivers, f):
    """The summary ``is_essential_bruteforce`` owes for f, given the summary
    ``want`` of a walk over ``receivers`` of |codomain| + 1 points: the same,
    except that an essential f has walked only the receivers of at most
    |codomain| points (the image lemma)."""
    if not want[0]:
        return want
    return True, None, sum(len(z_cat) <= len(f.codomain) for z_cat in receivers)


class TestEssentialMemo:
    @staticmethod
    def fully_faithful_functors(dq, bound):
        cats = list(enumerate_symmetric_categories(dq, bound))
        return [
            f
            for x_cat in cats
            for y_cat in cats
            for f in all_functors(x_cat, y_cat)
            if is_fully_faithful(f)
        ]

    @pytest.mark.parametrize(
        "name, bound, verdicts",
        [
            ("boolean", 2, {True, False}),
            # a fully faithful functor between one-point categories is essential
            ("diamond", 1, {True}),
            ("nilmin5", 1, {True}),
        ],
        ids=["boolean", "diamond", "nilmin5"],
    )
    def test_memoised_search_matches_reference_loop(self, name, bound, verdicts):
        dq = diagonal_quantaloid(shipped_quantale(name))
        functors = self.fully_faithful_functors(dq, bound)
        receivers = list(raw_symmetric_categories(dq, bound + 1, up_to_iso=True))
        expected = [
            walked_summary(reference_essential(f), receivers, f) for f in functors
        ]
        for f, want in zip(functors, expected):
            dq._essentiality.clear()
            cold = is_essential_bruteforce(f, max_objects=bound + 1)
            assert essential_summary(cold) == want
        # the warm memo now holds the receivers of the largest size met above
        for f, want in zip(functors, expected):
            warm = is_essential_bruteforce(f, max_objects=bound + 1)
            assert essential_summary(warm) == want
        assert {want[0] for want in expected} == verdicts

    @pytest.mark.parametrize("fixture", ["diamond", "nilmin5", "diamond_swap"])
    def test_bound_two_where_non_essential_functors_occur(self, request, fixture):
        """The full (essential, counterexample, categories_checked) summary
        at bound 2, whose codomains of two points admit non-essential
        functors.  Cold, the memo is cleared before the first functor into
        each labelled codomain, rather than before every functor, which would
        rebuild the same receivers hundreds of times; the reference builds
        its receivers once per size."""
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        functors = self.fully_faithful_functors(dq, 2)
        receivers = {
            size: list(raw_symmetric_categories(dq, size, up_to_iso=True))
            for size in (1, 2, 3)
        }
        expected = [
            walked_summary(reference_essential(f, receivers[len(f.codomain) + 1]), receivers[3], f)
            for f in functors
        ]
        seen = set()
        for f, want in zip(functors, expected):
            if f.codomain not in seen:
                seen.add(f.codomain)
                dq._essentiality.clear()
            cold = is_essential_bruteforce(f, max_objects=3)
            assert essential_summary(cold) == want
        for f, want in zip(functors, expected):
            warm = is_essential_bruteforce(f, max_objects=3)
            assert essential_summary(warm) == want
        assert {want[0] for want in expected} == {True, False}
        # some counterexample lies past the first receiver
        assert max(want[2] for want in expected if not want[0]) > 1

    def test_walks_only_the_receivers_with_every_codomain_type(self, monkeypatch, nilmin5):
        # every fully faithful functor between one-point categories is
        # essential, so each call searches every receiver it walks
        dq = diagonal_quantaloid(nilmin5)
        functors = self.fully_faithful_functors(dq, 1)
        searched = []
        real = hull._functor_search

        def counted(cod, z_cat, *rest):
            searched.append(z_cat)
            return real(cod, z_cat, *rest)

        monkeypatch.setattr(hull, "_functor_search", counted)
        for f in functors:
            searched.clear()
            result = is_essential_bruteforce(f, max_objects=2)
            listed, ends = dq._essentiality["receivers"]
            receivers = [z_cat for z_cat, _ in listed[: ends[len(f.codomain)]]]
            needed = set(f.codomain.objects.types)
            assert result.essential and result.categories_checked == len(receivers)
            assert searched == [z for z in receivers if needed <= set(z.objects.types)]
            assert len(searched) < len(receivers) or not needed
        assert any(len(f.codomain) for f in functors)

    def test_the_list_is_built_again_only_for_a_larger_size(self, monkeypatch):
        dq = diagonal_quantaloid(shipped_quantale("lukasiewicz3"))
        built = []
        real = hull.enumerate_symmetric_categories

        def counted(kernel, size):
            built.append(size)
            return real(kernel, size)

        monkeypatch.setattr(hull, "enumerate_symmetric_categories", counted)
        cats = list(real(dq, 3))
        identity = lambda c: QFunctor(c, c, range(len(c)))
        sizes = [2, 1, 2, 3, 0, 3, 1]
        for size in sizes:
            y_cat = next(c for c in cats if len(c) == size)
            assert is_essential_bruteforce(identity(y_cat), max_objects=size + 1).essential
        assert built == [2, 3]
        # the list built for three points starts with the classes of at most two
        receivers, ends = dq._essentiality["receivers"]
        assert len(ends) == 4 and ends[-1] == len(receivers)
        summary = lambda z: (z.names, z.objects.types, z.hom.entries)
        want = list(raw_symmetric_categories(dq, 2, up_to_iso=True))
        assert [summary(z) for z, _ in receivers[: ends[2]]] == [summary(z) for z in want]

    def test_t54_at_bound_two_builds_no_receiver_above_two_points(self):
        diamond = shipped_quantale("diamond")
        report = run_suite("t54", diamond, 2)
        assert report["functors"] == 188 and report["discrepancies"] == 0
        receivers, ends = diagonal_quantaloid(diamond)._essentiality["receivers"]
        assert len(ends) == 3 and max(len(z_cat) for z_cat, _ in receivers) == 2

    def test_memos_do_not_keep_the_quantale_alive(self):
        q = shipped_quantale("boolean")
        pair = boolean_setoid(q, [["1", "0"], ["0", "1"]])
        f = inclusion_functor(full_subcategory(pair, ["s0"]), pair)
        assert not is_essential_bruteforce(f).essential
        assert diagonal_quantaloid(q)._essentiality
        ref = weakref.ref(q)
        del q, pair, f
        gc.collect()
        assert ref() is None


def assert_image_lemma(quantale, bound: int) -> tuple[int, int]:
    """Compare ``is_essential_bruteforce`` with the walk over receivers of
    |codomain| + 1 points (``essential_over_one_more_point``) on the first
    functor of every ``t54`` class up to ``bound``, from an empty memo.  The
    verdicts must agree; a non-essential functor must also get the same
    counterexample and ``categories_checked``, and an essential one the
    count of the receivers of at most |codomain| points.  Returns the
    number of classes and of non-essential ones."""
    dq = diagonal_quantaloid(quantale)
    dq._essentiality.clear()
    receivers = one_more_point_receivers(dq, bound + 1)
    cats = list(enumerate_symmetric_categories(dq, bound))
    firsts = {}
    for x_cat in cats:
        for y_cat in cats:
            for f in all_functors(x_cat, y_cat, full=True):
                firsts.setdefault(_canonical_signature(y_cat, frozenset(f.assignment)), f)
    failing = 0
    for f in firsts.values():
        got = essential_summary(is_essential_bruteforce(f, max_objects=bound + 1))
        want = essential_summary(essential_over_one_more_point(f, receivers))
        assert got == walked_summary(want, [z_cat for z_cat, _ in receivers], f), f.as_dict()
        failing += not got[0]
    return len(firsts), failing


class TestImageLemma:
    """Receivers of at most |codomain| points give the verdict, the
    counterexample and its position that receivers of one more point give."""

    # (quantale, bound, classes, non-essential classes)
    CASES = [
        ("boolean", 2, 18, 2),
        ("luk3", 2, 41, 9),
        ("luk5", 2, 136, 50),
        ("nilmin5", 2, 110, 31),
        ("diamond", 2, 68, 16),
        ("diamond_swap", 2, 22, 5),
        ("boolean", 3, 54, 13),
        ("luk3", 3, 231, 106),
    ]

    @pytest.mark.parametrize(
        "fixture, bound, classes, failing", CASES, ids=[f"{c[0]}-b{c[1]}" for c in CASES]
    )
    def test_same_summary_as_the_walk_over_one_more_point(
        self, request, fixture, bound, classes, failing
    ):
        quantale = request.getfixturevalue(fixture)
        assert assert_image_lemma(quantale, bound) == (classes, failing)


def via_graphs(f):
    """The cross-check the validating is_fully_faithful keeps."""
    return rel_compose(cograph(f), graph(f)) == f.domain.hom


class TestTrustedFullyFaithful:
    """The pruned search yields functors that are trusted, unvalidated, as
    they come: all_functors' and the g of is_essential_bruteforce, whose
    full faithfulness is tested pointwise.  There the pointwise test must
    agree with cograph . graph = hom.  For fully faithful f,
    is_essential_bruteforce takes g . f to be fully faithful exactly when g
    preserves the homs on f(X); every composite must be a valid functor
    whose pointwise test agrees with the graphs and with that criterion."""

    # Bound 2 at least: between categories of at most one object every
    # functor is fully faithful, so no composite would be formed.
    CASES = [("diamond", 2), ("luk3", 2), ("diamond_swap", 2)]

    @pytest.mark.parametrize("fixture, bound", CASES, ids=[c[0] for c in CASES])
    def test_pointwise_agrees_with_the_graph_criterion(self, request, fixture, bound):
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        cats = list(enumerate_symmetric_categories(dq, bound))
        receivers = {
            size: list(
                raw_symmetric_categories(dq, size, up_to_iso=True)
            )
            for size in range(1, bound + 2)
        }
        functor_verdicts, composite_verdicts = set(), set()
        non_full = {}  # codomain -> its functors g that are not fully faithful
        for x_cat in cats:
            for y_cat in cats:
                for f in all_functors(x_cat, y_cat):
                    full = via_graphs(f)
                    assert _fully_faithful(f) == full, f.as_dict()
                    functor_verdicts.add(full)
                    if not full:
                        continue
                    if y_cat not in non_full:
                        non_full[y_cat] = []
                        for z_cat in receivers[len(y_cat) + 1]:
                            for g in all_functors(y_cat, z_cat):
                                g_full = via_graphs(g)
                                assert _fully_faithful(g) == g_full, g.as_dict()
                                functor_verdicts.add(g_full)
                                if not g_full:
                                    non_full[y_cat].append(g)
                    image = set(f.assignment)
                    for g in non_full[y_cat]:
                        h = functor_compose(g, f)
                        assert reference_validate_functor(
                            h.domain, h.codomain, h.assignment
                        ).valid, (f.as_dict(), g.as_dict())
                        assert _fully_faithful(h) == via_graphs(h), h.as_dict()
                        gy, z_hom = g.assignment, g.codomain.hom.entries
                        on_image = all(
                            y_cat.hom.entries[y][w] == z_hom[gy[y]][gy[w]]
                            for y in image
                            for w in image
                        )
                        assert _fully_faithful(h) == on_image, (f.as_dict(), g.as_dict())
                        composite_verdicts.add(_fully_faithful(h))
        # both answers occur, so neither side is compared vacuously
        assert functor_verdicts == {True, False}
        assert composite_verdicts == {True, False}


def boolean_pair(boolean, rows):
    return make_category(boolean, ["a", "b"], ["1", "1"], rows)


class TestSymmetryMemo:
    def test_success_is_decided_once(self, boolean, monkeypatch):
        import enritch.categories as categories

        calls = []
        real = categories.validate_category
        monkeypatch.setattr(
            categories, "validate_category", lambda c: calls.append(c) or real(c)
        )
        c = boolean_pair(boolean, [["1", "0"], ["0", "1"]])
        for _ in range(3):
            _require_symmetric(c)
        assert len(calls) == 1
        assert "_symmetric" in vars(c)

    def test_memo_takes_no_part_in_equality(self, boolean):
        checked = boolean_pair(boolean, [["1", "1"], ["1", "1"]])
        _require_symmetric(checked)
        fresh = boolean_pair(boolean, [["1", "1"], ["1", "1"]])
        assert "_symmetric" not in vars(fresh)
        assert checked == fresh and fresh == checked
        assert hash(checked) == hash(fresh)
        assert checked.to_dict() == fresh.to_dict()
        assert len({checked, fresh}) == 1


def marked(c):
    return vars(c).get("_symmetric", False)


class TestSymmetricMark:
    """one_point_extensions and full_subcategory hand back categories marked
    valid and symmetric, which _require_symmetric then trusts; the checks the
    mark skips run here on every category of the t36 and t54 bounds."""

    CASES = [
        ("boolean", 3),
        ("luk3", 3),
        ("nilmin5", 2),
        ("diamond", 2),
        ("diamond_swap", 2),
    ]

    @staticmethod
    def assert_checked(c):
        assert marked(c), c.to_dict()
        assert validate_category(c).valid, c.to_dict()
        assert is_symmetric(c), c.to_dict()

    @pytest.mark.parametrize("fixture, bound", CASES, ids=[c[0] for c in CASES])
    def test_marks_are_sound(self, request, fixture, bound):
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        extensions = subcategories = 0
        for x_cat in enumerate_symmetric_categories(dq, bound):
            for ext in one_point_extensions(x_cat):
                self.assert_checked(ext)
                extensions += 1
            assert marked(x_cat)  # one_point_extensions checked it on entry
            for size in range(len(x_cat) + 1):
                for names in itertools.combinations(x_cat.names, size):
                    self.assert_checked(full_subcategory(x_cat, names))
                    subcategories += 1
        assert extensions and subcategories

    def test_unchecked_parent_leaves_subcategories_unmarked(self, boolean):
        one_way = boolean_pair(boolean, [["1", "1"], ["0", "1"]])
        # {a} alone is symmetric, but its parent was never checked
        for size in range(3):
            for names in itertools.combinations(one_way.names, size):
                assert not marked(full_subcategory(one_way, names))


def record_functor_checks(monkeypatch) -> list:
    """The list that gets the (domain, codomain, assignment) of every
    functor check from now on."""
    import enritch.categories as categories

    checks = []
    real = categories.validate_functor
    monkeypatch.setattr(
        categories, "validate_functor", lambda *args: checks.append(args) or real(*args)
    )
    return checks


class TestValidateOnce:
    """find_one_point_retraction and extend_along trust the mark of a
    one-point extension, and a functor is checked once, when it is built:
    extend_along checks neither functor it is given, and the suites check
    one functor per t44 and t54 class."""

    @pytest.mark.parametrize("fixture, bound", [("boolean", 2), ("luk3", 2)])
    def test_extensions_are_not_validated_again(self, request, monkeypatch, fixture, bound):
        import enritch.categories as categories

        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        problems = []
        for x_cat in enumerate_symmetric_categories(dq, bound):
            _require_symmetric(x_cat)
            for ext in one_point_extensions(x_cat):
                problems.append((find_one_point_retraction, x_cat, ext))
            problems.extend(
                (extend_along, f, g) for f, g in t36_extension_family(x_cat)
            )
        calls = []
        for name in ("require_valid", "rel_compose"):
            real = getattr(categories, name)
            monkeypatch.setattr(
                categories,
                name,
                lambda *args, name=name, real=real: calls.append(name) or real(*args),
            )
        for call, a, b in problems:
            call(a, b)
        assert problems
        # every category involved carries the mark, so nothing is revalidated
        assert calls == []

    @pytest.mark.parametrize("fixture, bound", [("boolean", 3), ("luk3", 2)])
    def test_extend_along_checks_only_the_functor_it_builds(
        self, request, monkeypatch, fixture, bound
    ):
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        problems = [
            pair
            for x_cat in enumerate_symmetric_categories(dq, bound)
            for pair in t36_extension_family(x_cat)
        ]
        validated = record_functor_checks(monkeypatch)
        found = 0
        for f, g in problems:
            validated.clear()
            h = extend_along(f, g)
            # f and g are not checked again; a found h once, as it is built
            assert validated == ([] if h is None else [(h.domain, h.codomain, h.assignment)])
            found += h is not None
        assert 0 < found < len(problems)

    @pytest.mark.parametrize("fixture, bound", [("luk3", 3), ("nilmin5", 2), ("diamond_swap", 2)])
    def test_t44_checks_one_functor_per_class(self, request, monkeypatch, fixture, bound):
        quantale = request.getfixturevalue(fixture)
        singles, real_single = [], verify._t44_single
        monkeypatch.setattr(verify, "_t44_single", lambda x: singles.append(x) or real_single(x))
        validated = record_functor_checks(monkeypatch)
        report = run_suite("t44", quantale, bound)
        assert report["result"]
        # the Yoneda embedding of each class, checked as it is built; the
        # transport and the density checks check it no more
        assert 0 < len(validated) == len(singles) < report["categories"]
        for x_cat, (domain, codomain, assignment) in zip(singles, validated):
            assert domain == x_cat and codomain == tight_span(x_cat).category

    # (quantale, bound, (codomain, image) classes): one is_essential_bruteforce
    # call per class, against one per fully faithful functor (boolean 42,
    # diamond 188, nilmin5 317, diamond_swap 56)
    CASES = [("boolean", 2, 18), ("diamond", 2, 68), ("nilmin5", 2, 110), ("diamond_swap", 2, 22)]

    @pytest.mark.parametrize("fixture, bound, classes", CASES, ids=[c[0] for c in CASES])
    def test_t54_keys_each_image_once_and_validates_each_class_once(
        self, request, monkeypatch, fixture, bound, classes
    ):
        quantale = request.getfixturevalue(fixture)
        keyed, checked, validating, essential = [], [], [], []
        real_signature, real_single = verify._canonical_signature, verify._t54_single
        real_essential = verify.is_essential_bruteforce
        monkeypatch.setattr(
            verify,
            "_canonical_signature",
            lambda c, marked=frozenset(): keyed.append((c, marked)) or real_signature(c, marked),
        )
        monkeypatch.setattr(
            verify, "_t54_single", lambda f, bound: checked.append(f) or real_single(f, bound)
        )
        for module in (hull, verify):
            monkeypatch.setattr(
                module,
                "is_fully_faithful",
                lambda f: validating.append(f) or is_fully_faithful(f),
            )
        validated = record_functor_checks(monkeypatch)
        monkeypatch.setattr(
            verify,
            "is_essential_bruteforce",
            lambda f, max_objects: essential.append(real_essential(f, max_objects)) or essential[-1],
        )
        report = run_suite("t54", quantale, bound)
        assert report["result"]
        cats = list(enumerate_symmetric_categories(diagonal_quantaloid(quantale), bound))
        # every labelled codomain is keyed first with all its points marked;
        # only the first labelled copy of each codomain class goes on to
        # key its other subsets, in order, and no functor is keyed
        images = [
            (y, image)
            for y in cats
            for size in range(len(y) + 1)
            for image in itertools.combinations(range(len(y)), size)
        ]
        codomains: set = set()
        expected = []
        for y in cats:
            whole = tuple(range(len(y)))
            expected.append((y, whole))
            if marked_signature(y, whole) not in codomains:
                codomains.add(marked_signature(y, whole))
                expected.extend(
                    (y, image)
                    for size in range(len(y))
                    for image in itertools.combinations(whole, size)
                )
        assert len(codomains) < len(cats)  # some codomain has a later copy
        assert len(keyed) == len(expected) < len(images) < report["functors"]
        for (c, marked), (y, image) in zip(keyed, expected):
            assert c == y and marked == frozenset(image)
        # one check per class, on the inclusion of the first image of each
        # class, by the n! oracle signature
        firsts: dict = {}
        for y, image in images:
            firsts.setdefault(marked_signature(y, image), (y, image))
        assert len(checked) == len(firsts) == classes
        for f, (y, image) in zip(checked, firsts.values()):
            assert f.codomain == y and f.assignment == image
            assert f.domain.names == tuple(y.names[k] for k in image)
        # one fully faithful check of each, at the brute force's entry, and
        # one functor check of each as it is built, then one of each
        # counterexample the brute force builds, and no other
        assert validating == checked
        expected = []
        for f, result in zip(checked, essential, strict=True):
            expected.append((f.domain, f.codomain, f.assignment))
            if result.counterexample is not None:
                _, g = result.counterexample
                expected.append((g.domain, g.codomain, g.assignment))
        assert len(checked) < len(expected) < 2 * len(checked)
        assert validated == expected

    @pytest.mark.parametrize("fixture, bound, classes", CASES, ids=[c[0] for c in CASES])
    def test_t54_filter_matches_the_validating_filter(self, request, fixture, bound, classes):
        # the classes counted in closed form are those of the functors that
        # is_fully_faithful keeps out of all_functors, class by class
        quantale = request.getfixturevalue(fixture)
        cats = list(enumerate_symmetric_categories(diagonal_quantaloid(quantale), bound))
        every = [f for x in cats for y in cats for f in all_functors(x, y)]
        want = [f for f in every if is_fully_faithful(f)]
        assert 0 < len(want) < len(every)  # the filter drops some functors
        counts = Counter(marked_signature(f.codomain, f.assignment) for f in want)
        got = verify._t54_classes(cats, bound)
        assert len(got) == len(counts) == classes
        # the same classes, by the n! oracle signature, with the same counts
        assert {marked_signature(y, image): n for y, image, n in got.values()} == counts
        assert run_suite("t54", quantale, bound)["functors"] == len(want)


T54_INSTANCES = ["boolean", "luk3", "luk5", "nilmin5", "diamond", "diamond_swap"]


class TestT54Classes:
    """verify t54 checks one functor per isomorphism class of (codomain,
    image): both of its verdicts are functions of that pair."""

    @staticmethod
    def verdicts(f) -> tuple:
        return is_dense(f), is_essential_bruteforce(f, max_objects=3).essential

    @pytest.mark.parametrize("fixture", T54_INSTANCES)
    def test_verdicts_read_only_the_codomain_and_the_image(self, request, fixture):
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        cats = list(enumerate_symmetric_categories(dq, 2))
        moved = 0
        for x in cats:
            for y in cats:
                perm = list(reversed(range(len(y))))
                moved_y = relabel(y, perm)  # its point i is the point perm[i] of y
                for f in all_functors(x, y):
                    if not is_fully_faithful(f):
                        continue
                    want = self.verdicts(f)
                    image = [y.names[k] for k in sorted(set(f.assignment))]
                    onto = inclusion_functor(full_subcategory(y, image), y)
                    assert self.verdicts(onto) == want, f.as_dict()
                    then_moved = QFunctor(x, moved_y, [perm.index(a) for a in f.assignment])
                    assert self.verdicts(then_moved) == want, f.as_dict()
                    moved += then_moved.as_dict() != f.as_dict()
        assert moved > 0  # some relabellings move the image

    @pytest.mark.parametrize("fixture", T54_INSTANCES)
    def test_marked_signature_is_the_least_relabelling(self, request, fixture):
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        for c in enumerate_symmetric_categories(dq, 3):
            unmarked = raw_canonical_signature(c.objects.types, c.hom.entries)
            assert _canonical_signature(c) == _canonical_signature(c, frozenset()) == unmarked
            for size in range(1, len(c) + 1):
                for marked in itertools.combinations(range(len(c)), size):
                    got = _canonical_signature(c, marked=frozenset(marked))
                    assert got == marked_signature(c, marked), (c.to_dict(), marked)


class TestYonedaEssentiality:
    def test_yoneda_embedding_essential_where_brute_force_is_feasible(self, boolean):
        # the embedding into the tight span is dense, hence essential; the
        # brute force confirms it wherever the span is small enough to scan
        dq = diagonal_quantaloid(boolean)
        confirmed = 0
        for c in enumerate_symmetric_categories(dq, 2):
            span = tight_span(c)
            if len(span.members) > 2:
                continue
            embedding = span.yoneda_embedding()
            assert is_dense(embedding)
            assert is_essential_bruteforce(embedding, max_objects=3).essential
            confirmed += 1
        assert confirmed >= 2


class TestTransport:
    def test_identity_transport(self, boolean):
        c = boolean_setoid(boolean, [["1", "1"], ["1", "1"]])
        f = QFunctor(c, c, range(len(c)))
        result = tight_span_restriction(f, tight_span(c))
        assert result.ok

    def test_yoneda_transport_is_isomorphism(self, boolean, luk3):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                span = tight_span(c)
                result = tight_span_restriction(span.yoneda_embedding(), span)
                assert result.ok, result.failures

    def test_non_dense_functor_refused(self, boolean):
        pair = boolean_setoid(boolean, [["1", "0"], ["0", "1"]])
        f = inclusion_functor(full_subcategory(pair, ["s0"]), pair)
        assert is_fully_faithful(f) and not is_dense(f)
        with pytest.raises(PreconditionError):
            tight_span_restriction(f, tight_span(f.domain))

    def test_span_of_another_category_refused(self, boolean):
        pair = boolean_setoid(boolean, [["1", "1"], ["1", "1"]])
        discrete = boolean_setoid(boolean, [["1", "0"], ["0", "1"]])
        f = QFunctor(pair, pair, (0, 1))
        with pytest.raises(ShapeMismatchError, match="not the tight span of the domain"):
            tight_span_restriction(f, tight_span(discrete))
        assert tight_span_restriction(f, tight_span(pair)).ok

    def test_dense_pair_embedding_bijection(self, boolean):
        pair = boolean_setoid(boolean, [["1", "1"], ["1", "1"]])
        point = full_subcategory(pair, ["s0"])
        f = inclusion_functor(point, pair)
        assert is_dense(f)
        result = tight_span_restriction(f, tight_span(point))
        assert result.ok

    @staticmethod
    def discrete_pair_embedding(luk3):
        """The Yoneda embedding of the discrete lukasiewicz3 pair, whose
        tight span has more members than the pair has points."""
        c = make_category(luk3, ["a", "b"], ["1", "1"], [["1", "0"], ["0", "1"]])
        span = tight_span(c)
        assert len(span.members) > len(c)
        return span.yoneda_embedding(), span

    def test_span_missing_a_member_is_not_onto(self, luk3):
        f, span = self.discrete_pair_embedding(luk3)
        kept = span.category.names[:-1]
        short = TightSpan(
            f.domain, span.members[:-1], full_subcategory(span.category, kept)
        )
        result = tight_span_restriction(f, short)
        assert result.failures == ("transport is not onto the domain tight span",)

    @staticmethod
    def padded_span(span, extra):
        """``span`` with the presheaves ``extra`` of its base appended as
        members, hom from ``residual_matrix``: a codomain span whose extra
        members' images need not be tight."""
        dq = span.base.quantaloid
        members = span.members + tuple(extra)
        carrier = TypedSet(dq, tuple(f"t{i}" for i in range(len(members))),
                           tuple(q for q, _ in members))
        entries = dq.residual_matrix(members, members)
        return TightSpan(span.base, members, QCategory(carrier, QRelation(carrier, carrier, entries)))

    @staticmethod
    def outcome(run):
        try:
            return run()
        except InvariantError as error:
            return type(error), str(error)

    @pytest.mark.parametrize("fixture, bound", [("boolean", 3), ("luk3", 2), ("diamond_swap", 2)])
    def test_one_residual_call_matches_the_per_member_loop(
        self, request, monkeypatch, fixture, bound
    ):
        # Yoneda embeddings into their spans, whose codomain span is padded
        # with non-tight presheaves so that some images fail the tight
        # equation; then a kernel that finds no column a presheaf, which
        # makes the first tight image an invariant failure
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        cases = []
        for c in enumerate_symmetric_categories(dq, bound):
            span = tight_span(c)
            cod = span.category
            extra = itertools.islice(
                (mu for mu in enumerate_presheaves(cod) if not is_tight_column(cod, *mu)), 6
            )
            cases.append((span.yoneda_embedding(), span, self.padded_span(tight_span(cod), extra)))
        spans = {id(f.codomain): padded for f, _, padded in cases}
        monkeypatch.setattr(hull, "tight_span", lambda c: spans[id(c)])
        seen = Counter()
        for lie in (False, True):
            if lie:
                monkeypatch.setattr(FiniteDiagonals, "distributor_holds", lambda *args: False)
            for f, span, padded in cases:
                got = self.outcome(lambda: tight_span_restriction(f, span).failures)
                assert got == self.outcome(lambda: per_member_restriction(f, span, padded))
                seen.update(got if isinstance(got[0], str) else [got[0]])
        assert seen[InvariantError] == len(cases)
        assert any("is not tight on the domain" in failure for failure in seen)
        assert seen["transport is not injective"] and seen["transport is not an isometry"]

    @pytest.mark.parametrize("rows_moved", [1, None], ids=["one-entry", "every-row"])
    def test_perturbed_isometry_is_reported_once(self, monkeypatch, luk3, rows_moved):
        # move one entry of the residual matrix of the images with
        # themselves (the only square call on columns over the domain), in
        # the first row that can move or in every such row
        f, span = self.discrete_pair_embedding(luk3)
        original = FiniteDiagonals.residual_matrix
        moved = []

        def residual_matrix(dq, left, right):
            matrix = original(dq, left, right)
            if left is not right or len(left[0][1]) != len(f.domain):
                return matrix
            rows = [list(row) for row in matrix]
            for i, (p, _) in enumerate(left):
                # the first entry whose hom has another diagonal to move to
                j = next((j for j, (t, _) in enumerate(right) if len(dq.hom(p, t)) > 1), None)
                if j is not None and len(moved) != rows_moved:
                    t = right[j][0]
                    rows[i][j] = next(u for u in dq.hom(p, t) if u != rows[i][j])
                    moved.append((i, j))
            return tuple(map(tuple, rows))

        monkeypatch.setattr(FiniteDiagonals, "residual_matrix", residual_matrix)
        result = tight_span_restriction(f, span)
        assert len(moved) == 1 if rows_moved else len(moved) > 1
        assert result.failures == ("transport is not an isometry",)


class TestOtherInstances:
    def test_full_stack_on_nondivisible_and_nonchain_instances(self, nilmin5, diamond):
        # the nilpotent-minimum chain is not divisible and the diamond is
        # not a chain; both must still satisfy every structural equivalence
        for quantale in (nilmin5, diamond):
            dq = diagonal_quantaloid(quantale)
            cats = list(enumerate_symmetric_categories(dq, 2))
            assert cats
            for c in cats:
                hyper = is_hypercomplete(c).holds
                retract = all(
                    find_one_point_retraction(c, ext) is not None
                    for ext in one_point_extensions(c)
                )
                assert hyper == retract, (quantale.name, c.to_dict())
                span = tight_span(c)  # asserts symmetry and validity itself
                assert is_hypercomplete(span.category).holds
                embedding = span.yoneda_embedding()
                assert embedding is not None
                assert is_fully_faithful(embedding)
                assert is_dense(embedding)

    def test_essentiality_dedup_matches_raw_enumeration(self, boolean):
        # deduplicating receiving categories up to relabeling must not
        # change any verdict
        dq = diagonal_quantaloid(boolean)
        cats = list(enumerate_symmetric_categories(dq, 2))
        pairs = 0
        for x_cat in cats[:6]:
            for y_cat in cats[:6]:
                for f in all_functors(x_cat, y_cat):
                    if not is_fully_faithful(f):
                        continue
                    verdict = is_essential_bruteforce(f, max_objects=3).essential
                    raw = True
                    for z_cat in raw_symmetric_categories(dq, len(y_cat) + 1):
                        for g in all_functors(y_cat, z_cat):
                            gf = functor_compose(g, f)
                            if is_fully_faithful(gf) and not is_fully_faithful(g):
                                raw = False
                                break
                        if not raw:
                            break
                    assert verdict == raw
                    pairs += 1
        assert pairs > 5


def isomorphism_classes(dq, bound):
    """The first category of each isomorphism class, as the suites check them."""
    first = {}
    for c in enumerate_symmetric_categories(dq, bound):
        first.setdefault(_canonical_signature(c), c)
    return list(first.values())


def raised_member(c):
    """A column strictly above a tight span member: the first member with a
    coordinate below the top of its hom, raised there to the top; or None."""
    dq, types = c.quantaloid, c.objects.types
    for q, values in tight_span(c).members:
        for i, u in enumerate(values):
            top = dq.hom_top(types[i], q)
            if u != top:
                return q, values[:i] + (top,) + values[i + 1 :]
    return None


def assert_covers_match_walk(quantale, bound: int, all_pairs: bool = False) -> tuple[int, int]:
    """Compare ``_maximal_in_ambient``, which goes by covers, with the walk
    over the ambient columns it replaced (``grouped_walk_maximal``, and with
    ``all_pairs`` also ``all_pairs_maximal``) on the first category of every
    isomorphism class up to ``bound``.  Two member sets: the span's members,
    where every check holds, and every ambient column, where they fail unless
    the ambient columns of each type are pairwise incomparable.  One column
    at a time, the maximal ambient columns must be the span's members.
    Returns the number of classes and of those whose ambient columns are
    not all maximal."""
    dq = diagonal_quantaloid(quantale)
    classes = isomorphism_classes(dq, bound)
    dominated = 0
    for c in classes:
        span, ambient = tight_span(c).members, list(enumerate_ambient(c))
        for members in (span, ambient):
            verdict = _maximal_in_ambient(c, members)
            assert verdict == grouped_walk_maximal(c, members), c.to_dict()
            if all_pairs:
                assert verdict == all_pairs_maximal(c, members), c.to_dict()
        assert _maximal_in_ambient(c, span), c.to_dict()
        dominated += not _maximal_in_ambient(c, ambient)
        maximal = [pair for pair in ambient if _maximal_in_ambient(c, [pair])]
        assert set(maximal) == set(span), c.to_dict()
    return len(classes), dominated


class TestMaximality:
    # (quantale, classes, classes with a dominated ambient column) at bound 3
    CASES = [
        ("boolean", 14, 10),
        ("luk3", 46, 42),
        ("luk5", 354, 350),
        ("nilmin5", 200, 196),
        ("diamond", 87, 83),
        ("diamond_swap", 22, 18),
    ]

    @pytest.mark.parametrize(
        "fixture, classes, dominated", CASES, ids=[case[0] for case in CASES]
    )
    def test_grouped_check_matches_the_all_pairs_loop(self, request, fixture, classes, dominated):
        # the covers check against the grouped walk and the all-pairs loop
        quantale = request.getfixturevalue(fixture)
        assert assert_covers_match_walk(quantale, 3, all_pairs=True) == (classes, dominated)

    def test_a_column_above_a_member_is_a_discrepancy(self, monkeypatch, luk3):
        # The kernel's closure lies: it answers the all-bottom column, which
        # is admissible, so every member with a coordinate below the top of
        # its hom, where a cover raises it, seems to have an ambient column
        # above it.
        dq = diagonal_quantaloid(luk3)

        def lying(types, hom, q, values):
            return tuple(dq.hom_bottom(t, q) for t in types)

        monkeypatch.setattr(dq, "closure", lying)
        report = run_suite("t44", luk3, 2)
        cats = enumerate_symmetric_categories(diagonal_quantaloid(luk3), 2)
        lied = sum(raised_member(c) is not None for c in cats)
        assert report["discrepancies"] == lied > 0
        assert not report["result"]
        assert report["witness"]["tight_maximal_in_ambient"] is False
        assert report["witness"]["transport_isomorphism"] is True

    def test_each_kernel_keeps_its_own_covers(self):
        # Both quantales number their elements from 0, so a memo keyed on
        # (p, t, a) alone would hand diamond's covers to lukasiewicz3.
        data = files("enritch") / "data"
        quantales = [fileio.load_quantale(data / f"{n}.json") for n in ("lukasiewicz3", "diamond")]
        kernels = [diagonal_quantaloid(q) for q in quantales]
        assert kernels[0]._covers == {} == kernels[1]._covers
        assert kernels[0]._covers is not kernels[1]._covers
        reports = [run_suite("t44", q, 2) for q in quantales + quantales]
        assert reports[:2] == reports[2:] and all(r["result"] for r in reports)
        for dq in kernels:
            assert dq._covers
            for (p, t, a), found in dq._covers.items():
                hom, leq = dq.hom(p, t), dq.leq
                below = lambda x, y: x != y and leq(x, y)  # noqa: E731
                assert found == tuple(
                    b for b in hom if below(a, b) and not any(below(a, m) and below(m, b) for m in hom)
                ), (dq.quantale.name, p, t, a)
        # some key means different covers in the two quantales
        shared = kernels[0]._covers.keys() & kernels[1]._covers.keys()
        assert any(kernels[0]._covers[k] != kernels[1]._covers[k] for k in shared)

    def test_no_tight_presheaf_strictly_dominated(self, boolean, luk3):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                span = tight_span(c)
                for q, lam in span.members:
                    for p, mu in enumerate_ambient(c):
                        if p != q:
                            continue
                        if all(dq.leq(a, b) for a, b in zip(lam, mu)):
                            assert mu == lam


class TestRetractionOntoSpan:
    def test_tighten_is_a_retraction_functor(self, boolean, luk3):
        # the tightening map realizes a functor from the symmetrized ambient
        # category onto the tight span, restricting to the identity on it
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                ambient = ambient_presheaves(c)
                images = [tighten(c, mu) for mu in ambient]
                for mu, image in zip(ambient, images):
                    if is_tight_column(c, mu.q, mu.values):
                        assert image.values == mu.values
                    assert all(
                        dq.leq(mu.values[i], image.values[i])
                        for i in range(len(c))
                    )
                for i, mu in enumerate(ambient):
                    for j, nu in enumerate(ambient):
                        sym_hom = dq.hom_meet(
                            mu.q,
                            nu.q,
                            (
                                presheaf_hom(mu, nu),
                                dq.involve(presheaf_hom(nu, mu)),
                            ),
                        )
                        assert dq.leq(
                            sym_hom, presheaf_hom(images[i], images[j])
                        )
