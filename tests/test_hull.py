import gc
import itertools
import random
import weakref

import pytest

from enritch.categories import (
    Presheaf,
    QFunctor,
    _fully_faithful,
    _require_symmetric,
    cograph,
    enumerate_presheaves,
    graph,
    is_fully_faithful,
    is_symmetric,
    presheaf_hom,
    underlying_order,
    validate_category,
    validate_functor,
    yoneda,
)
from enritch.diagonals import diagonal_quantaloid
from enritch.errors import (
    BoundExceededError,
    InvariantError,
    PreconditionError,
    UnsupportedQuantaleError,
)
from enritch.hull import (
    TightSpan,
    _chain_bound,
    _enumerate_tight_columns,
    _tight_residual,
    all_functors,
    column_admissible,
    enumerate_ambient,
    enumerate_symmetric_categories,
    extend_along,
    find_one_point_retraction,
    full_subcategory,
    functor_compose,
    inclusion_functor,
    is_ambient,
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
from enritch.relations import rel_compose
from enritch.verify import run_suite

from conftest import make_category, random_partial_metric, shipped_quantale
from oracles import extension_from_presheaf, one_object_category, tighten


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
        zero = LAWVERE.parse_value("0")
        val = LAWVERE.parse_value
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
            for mu in span.members:
                assert is_ambient(c, mu)


class TestTighten:
    def test_fixed_point_unchanged(self, boolean):
        c = boolean_setoid(boolean, [["1", "1"], ["1", "1"]])
        mu = yoneda(c, "s0")
        assert tighten(c, mu).values == mu.values

    def test_indiscrete_boolean_setoid_example(self, boolean):
        c = boolean_setoid(boolean, [["1", "1"], ["1", "1"]])
        zero = boolean.parse_value("0")
        one = boolean.parse_value("1")
        mu = Presheaf(c, one, (zero, zero))
        out = tighten(c, mu)
        assert out.values == (one, one)

    def test_every_ambient_presheaf_tightens(self, luk3, boolean):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                for mu in enumerate_ambient(c):
                    out = tighten(c, mu)
                    assert is_tight_column(c, out.q, out.values)
                    assert all(
                        dq.leq(mu.values[i], out.values[i]) for i in range(len(c))
                    )
                    assert tighten(c, out).values == out.values  # idempotent

    def test_non_ambient_rejected(self, boolean):
        c = boolean_setoid(boolean, [["1", "0"], ["0", "1"]])
        one = boolean.parse_value("1")
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
        for lam, name in zip(span.members, span.category.names):
            if lam.q == mu.q and lam.values == mu.values:
                assignment.append(name)
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
        image = embedding("p")
        assert span.category.hom.at(image, image) == luk3.parse_value("1/2")

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
        image = span.yoneda_embedding()("q")
        kept = [name for name in span.category.names if name != image]
        smaller = TightSpan(
            c,
            tuple(mu for mu, name in zip(span.members, span.category.names) if name != image),
            full_subcategory(span.category, kept),
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
        images = {(yoneda(c, x).q, yoneda(c, x).values) for x in c.names}
        assert len(images) == 2
        # frozen from the presheaf-filter oracle: the two class columns of
        # type 1 plus the type-0 bottom column
        oracle = [
            (mu.q, mu.values)
            for mu in enumerate_presheaves(c)
            if is_tight_column(c, mu.q, mu.values)
        ]
        assert len(oracle) == 3
        assert sorted(oracle) == sorted((m.q, m.values) for m in span.members)
        assert len(span.members) == 3

    def test_span_members_match_presheaf_filter(self, boolean, luk3):
        # oracle: filter the full presheaf enumeration by the tight equation
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                span = tight_span(c)
                expected = [
                    (mu.q, mu.values)
                    for mu in enumerate_presheaves(c)
                    if is_tight_column(c, mu.q, mu.values)
                ]
                assert sorted(expected) == sorted(
                    (mu.q, mu.values) for mu in span.members
                )

    def test_lawvere_span_unsupported(self):
        c = make_category(LAWVERE, ["a"], ["0"], [["0"]])
        with pytest.raises(UnsupportedQuantaleError):
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
    def test_tight_columns_of_a_tight_span_are_its_yoneda_columns(
        self, request, fixture, bound, span_limit
    ):
        # the tight span of a tight span is itself
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        for c in enumerate_symmetric_categories(dq, bound):
            s = tight_span(c).category
            found = [
                (q, values) for q in dq.objects() for values in _enumerate_tight_columns(s, q)
            ]
            yonedas = {(yoneda(s, x).q, yoneda(s, x).values) for x in s.names}
            assert len(found) == len(s) == len(yonedas)
            assert set(found) == yonedas, c.to_dict()


class TestHypercomplete:
    def test_empty_category_not_hypercomplete(self, boolean):
        c = make_category(boolean, [], [], [])
        result = is_hypercomplete(c)
        assert not result.holds
        assert result.witness is not None
        assert result.witness.values == ()

    def test_one_point_type_one_boolean(self, boolean):
        # strict: the type-0 bottom column has no witness of type 0;
        # lax: every column is witnessed elementwise
        dq = diagonal_quantaloid(boolean)
        c = one_object_category(dq, boolean.parse_value("1"), "p")
        strict = is_hypercomplete(c, strict=True)
        assert not strict.holds
        assert strict.witness.to_dict() == {"type": "0", "values": {"p": "0"}}
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
    for x_i, y_name in enumerate(g.assignment):
        y_i = y_cat.objects.index(y_name)
        cls = iso.class_index(f.assignment[x_i])
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
            return QFunctor(y_cat, z_cat, tuple(z_names[j] for j in partial))
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
    target_type = y_cat.type_payload(y0)
    for z in x_cat.names:
        if x_cat.type_payload(z) != target_type:
            continue
        mapping = {name: name for name in x_cat.names}
        mapping[y0] = z
        h = QFunctor.from_dict(y_cat, x_cat, mapping)
        if validate_functor(h).valid:
            return h
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
        extensions = retractions = 0
        found = [0, 0]
        for x_cat in enumerate_symmetric_categories(dq, bound):
            for f, g in t36_extension_family(x_cat):
                want = reference_extend_along(f, g)
                assert same_functor(extend_along(f, g), want), (f.as_dict(), g.as_dict())
                extensions += 1
                found[0] += want is not None
            for ext in one_point_extensions(x_cat):
                want = reference_retraction(x_cat, ext)
                assert same_functor(find_one_point_retraction(x_cat, ext), want), ext.to_dict()
                retractions += 1
                found[1] += want is not None
        # both outcomes occur, so neither branch is compared vacuously
        assert 0 < found[0] < extensions and 0 < found[1] < retractions


def lawvere_pair():
    """A valid 2-point partial metric as a category over the extended rationals."""
    v = LAWVERE.parse_value
    return to_category(ParMetSpace(("a", "b"), ((v("1"), v("3")), (v("3"), v("2")))))


def identity_functor(c):
    return QFunctor(c, c, c.names)


class TestLawvereInput:
    """Enumeration over the extended rationals is refused by the kernel alone
    (``objects`` and ``hom``); what does not enumerate runs there exactly."""

    REFUSED = {
        "tight_span": tight_span,
        "is_hypercomplete": is_hypercomplete,
        "one_point_extensions": lambda c: list(one_point_extensions(c)),
        "tighten": lambda c: tighten(c, yoneda(c, "a")),
        "tight_span_restriction": lambda c: tight_span_restriction(identity_functor(c)),
        "is_essential_bruteforce": lambda c: is_essential_bruteforce(identity_functor(c)),
        "enumerate_symmetric_categories": lambda c: list(
            enumerate_symmetric_categories(c.quantaloid, 2)
        ),
        "enumerate_presheaves": enumerate_presheaves,
        "enumerate_ambient": enumerate_ambient,
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
        f = QFunctor(c, c, tuple(c.names))
        h = extend_along(f, f)
        assert h is not None
        assert h.assignment in (("s0", "s0"), ("s0", "s1"), ("s1", "s0"), ("s1", "s1"))

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
                            from enritch.categories import underlying_order

                            order = underlying_order(z_cat)
                            hg = functor_compose(h, g)
                            assert all(
                                order.isomorphic(hg(x), f(x)) for x in x_cat.names
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
        f = QFunctor(c, c, ("s0", "s1"))
        g = QFunctor(c, p, ("s0", "s0"))
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
                ext = extension_from_presheaf(c, result.witness)
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
        f = QFunctor(c, c, ("a", "b"))
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
        f = QFunctor(c, c, tuple(c.names))
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
        f = QFunctor(c, c, tuple(c.names))
        with pytest.raises(BoundExceededError):
            is_essential_bruteforce(f, max_objects=3)


def reference_essential(f):
    """The unmemoised loop over every receiving category and functor (oracle)."""
    dq = f.domain.quantaloid
    checked = 0
    for z_cat in enumerate_symmetric_categories(
        dq, len(f.codomain) + 1, name_prefix="z", up_to_iso=True
    ):
        checked += 1
        for g in all_functors(f.codomain, z_cat):
            if is_fully_faithful(functor_compose(g, f)) and not is_fully_faithful(g):
                return False, (z_cat.to_dict(), g.as_dict()), checked
    return True, None, checked


def essential_summary(result):
    counterexample = None
    if result.counterexample is not None:
        z_cat, g = result.counterexample
        counterexample = (z_cat.to_dict(), g.as_dict())
    return result.essential, counterexample, result.categories_checked


class TestEssentialMemo:
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
        cats = list(enumerate_symmetric_categories(dq, bound))
        functors = [
            f
            for x_cat in cats
            for y_cat in cats
            for f in all_functors(x_cat, y_cat)
            if is_fully_faithful(f)
        ]
        expected = [reference_essential(f) for f in functors]
        for f, want in zip(functors, expected):
            dq._essentiality.clear()
            cold = is_essential_bruteforce(f, max_objects=bound + 1)
            assert essential_summary(cold) == want
        # the warm memo now holds every codomain met above
        for f, want in zip(functors, expected):
            warm = is_essential_bruteforce(f, max_objects=bound + 1)
            assert essential_summary(warm) == want
        assert {want[0] for want in expected} == verdicts

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


def via_graphs(f):
    """The cross-check the validating is_fully_faithful keeps."""
    return rel_compose(cograph(f), graph(f)) == f.domain.hom


class TestTrustedFullyFaithful:
    """is_essential_bruteforce tests fully-faithfulness pointwise, without
    validating, on the functors all_functors yields and on the composites
    g . f it forms; there the pointwise test must agree with cograph .
    graph = hom, and every composite must be a valid functor."""

    # Bound 2 at least: between categories of at most one object every
    # functor is fully faithful, so no composite would be formed.
    CASES = [("diamond", 2), ("luk3", 2), ("diamond_swap", 2)]

    @pytest.mark.parametrize("fixture, bound", CASES, ids=[c[0] for c in CASES])
    def test_pointwise_agrees_with_the_graph_criterion(self, request, fixture, bound):
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        cats = list(enumerate_symmetric_categories(dq, bound))
        receivers = {
            size: list(
                enumerate_symmetric_categories(dq, size, name_prefix="z", up_to_iso=True)
            )
            for size in range(1, bound + 2)
        }
        functor_verdicts, composite_verdicts = set(), set()
        non_full = {}  # codomain -> the g the essentiality memo keeps
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
                    for g in non_full[y_cat]:
                        h = functor_compose(g, f)
                        assert validate_functor(h).valid, (f.as_dict(), g.as_dict())
                        assert _fully_faithful(h) == via_graphs(h), h.as_dict()
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


class TestValidateOnce:
    """find_one_point_retraction and extend_along trust the mark of a
    one-point extension, and extend_along tests g pointwise once require_functor
    has passed it."""

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

    CASES = [("boolean", 2), ("diamond", 2), ("nilmin5", 2), ("diamond_swap", 2)]

    @pytest.mark.parametrize("fixture, bound", CASES, ids=[c[0] for c in CASES])
    def test_t54_filter_matches_the_validating_filter(
        self, request, monkeypatch, fixture, bound
    ):
        import enritch.verify as verify

        quantale = request.getfixturevalue(fixture)
        checked, validating = [], []
        monkeypatch.setattr(
            verify, "_t54_single", lambda f, bound: checked.append(f) or {"agree": True}
        )
        monkeypatch.setattr(
            verify, "is_fully_faithful", lambda f: validating.append(f) or is_fully_faithful(f)
        )
        run_suite("t54", quantale, bound)
        assert validating == []  # the filter trusts what all_functors yields
        cats = list(enumerate_symmetric_categories(diagonal_quantaloid(quantale), bound))
        every = [f for x in cats for y in cats for f in all_functors(x, y)]
        want = [f for f in every if is_fully_faithful(f)]
        assert 0 < len(want) < len(every)  # the filter drops some functors
        assert len(checked) == len(want)
        assert all(same_functor(got, f) for got, f in zip(checked, want))


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
        f = QFunctor(c, c, tuple(c.names))
        result = tight_span_restriction(f)
        assert result.ok
        for lam, image in result.pairs:
            assert lam.values == image.values

    def test_yoneda_transport_is_isomorphism(self, boolean, luk3):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                result = tight_span_restriction(tight_span(c).yoneda_embedding())
                assert result.ok, result.failures

    def test_non_dense_functor_refused(self, boolean):
        pair = boolean_setoid(boolean, [["1", "0"], ["0", "1"]])
        f = inclusion_functor(full_subcategory(pair, ["s0"]), pair)
        assert is_fully_faithful(f) and not is_dense(f)
        with pytest.raises(PreconditionError):
            tight_span_restriction(f)

    def test_dense_pair_embedding_bijection(self, boolean):
        pair = boolean_setoid(boolean, [["1", "1"], ["1", "1"]])
        point = full_subcategory(pair, ["s0"])
        f = inclusion_functor(point, pair)
        assert is_dense(f)
        result = tight_span_restriction(f)
        assert result.ok


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
                    for z_cat in enumerate_symmetric_categories(
                        dq, len(y_cat) + 1, name_prefix="z", up_to_iso=False
                    ):
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


class TestMaximality:
    def test_no_tight_presheaf_strictly_dominated(self, boolean, luk3):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                span = tight_span(c)
                for lam in span.members:
                    for mu in enumerate_ambient(c):
                        if mu.q != lam.q:
                            continue
                        if all(
                            dq.leq(lam.values[i], mu.values[i])
                            for i in range(len(c))
                        ):
                            assert mu.values == lam.values


class TestRetractionOntoSpan:
    def test_tighten_is_a_retraction_functor(self, boolean, luk3):
        # the tightening map realizes a functor from the symmetrized ambient
        # category onto the tight span, restricting to the identity on it
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                ambient = enumerate_ambient(c)
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
