import gc
import itertools
import random
import weakref
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest

from enritch.diagonals import _join_irreducible_codes, diagonal_quantaloid
from enritch.errors import PreconditionError, UnsupportedQuantaleError
from enritch.fileio import load_quantale
from enritch.parmet import ParMetSpace, to_category, validate_partial_metric
from enritch.quantale import LAWVERE
from enritch.rationals import INF, ZERO, ExtRat
from enritch.relations import QRelation, rel_residual

from conftest import random_partial_metric, value
from oracles import LAWVERE_REFERENCE, lawvere_rel_residual, reference_is_divisible

DATA = Path(str(files("enritch") / "data"))


def lv(x):
    return value(LAWVERE, x)


LV = diagonal_quantaloid(LAWVERE)


def rational_pool(seed, count=18, max_num=12, max_den=4):
    rng = random.Random(seed)
    pool = [ZERO, INF]
    for _ in range(count):
        pool.append(ExtRat(Fraction(rng.randint(0, max_num), rng.randint(1, max_den))))
    return pool


class TestDiagonalMembership:
    def test_extended_rational_examples(self):
        assert LV.is_hom(lv(3), lv(4), lv(5))
        assert not LV.is_hom(lv(3), lv(1), lv(2))  # u below the source
        assert LV.is_hom(lv(2), lv(2), lv(2))  # identity diagonal
        # the extended rationals are divisible: membership is u <= p meet q
        q = LAWVERE_REFERENCE
        for p, t, u in itertools.product(rational_pool(7), repeat=3):
            assert LV.is_hom(p, t, u) == q._leq(u, q._meet((p, t)))
            # the closed form is the diagonal equation (u/p) (x) p = u = t (x) (t\u)
            left = q._tensor(q._residual_left(u, p), p)
            right = q._tensor(t, q._residual_right(t, u))
            assert LV.is_hom(p, t, u) == (left == u == right), (p, t, u)

    def test_divisible_equivalence_on_chains(self, luk3, diamond):
        # for divisible instances membership is exactly u <= p meet q
        for q in (luk3, diamond):
            assert reference_is_divisible(q)
            dq = diagonal_quantaloid(q)
            for p in q.payloads():
                for t in q.payloads():
                    for u in q.payloads():
                        expected = q.leq_table[u][q.meet_table[p][t]]
                        assert dq.is_hom(p, t, u) == expected

    def test_nondivisible_instance_has_proper_hom(self, nilmin5):
        # 1/4 <= 3/4 but 1/4 is not a diagonal 3/4 -> 3/4
        dq = diagonal_quantaloid(nilmin5)
        q34 = value(nilmin5, "3/4")
        q14 = value(nilmin5, "1/4")
        assert nilmin5.leq_table[q14][q34]
        assert not dq.is_hom(q34, q34, q14)
        assert dq.is_hom(q34, q34, value(nilmin5, "1/2"))

    def test_bottom_always_a_diagonal(self, boolean, luk3, nilmin5, diamond):
        for q in (boolean, luk3, nilmin5, diamond):
            dq = diagonal_quantaloid(q)
            for p in q.payloads():
                for t in q.payloads():
                    assert dq.is_hom(p, t, q.bottom)


class TestHomEnumeration:
    def test_boolean_full_hom(self, boolean):
        one = value(boolean, "1")
        assert diagonal_quantaloid(boolean).hom(one, one) == (0, 1)

    def test_boolean_mixed_hom_is_bottom_only(self, boolean):
        one, zero = value(boolean, "1"), value(boolean, "0")
        assert diagonal_quantaloid(boolean).hom(one, zero) == (0,)

    def test_lukasiewicz_half_hom(self, luk3):
        half = value(luk3, "1/2")
        dq = diagonal_quantaloid(luk3)
        assert [dq.format(u) for u in dq.hom(half, half)] == ["0", "1/2"]

    def test_identity_morphism_only_on_equal_objects(self, luk3):
        dq = diagonal_quantaloid(luk3)
        for p in luk3.payloads():
            assert dq.is_hom(p, p, dq.identity(p))
            # the identity is the top of its endo-hom
            assert dq.hom_top(p, p) == dq.identity(p)

    def test_lawvere_enumeration_unsupported(self):
        refusals = [
            (LV.objects, "lawvere has infinitely many elements;"
             " the partial-metric module covers the extended rationals"),
            (lambda: LV.hom(lv(0), lv(1)),
             "hom sets of the extended-rational quantaloid are infinite"),
            (lambda: LV.column_tables(lv(0)),
             "the extended-rational quantaloid has no finite lookup tables"),
        ]
        for call, message in refusals:
            with pytest.raises(UnsupportedQuantaleError) as info:
                call()
            assert str(info.value) == message


class TestComposition:
    def test_extended_rational_example(self):
        # u = 4: 2 -> 3 then v = 5: 3 -> 3 gives 6: 2 -> 3
        assert LV.is_hom(lv(2), lv(3), lv(4)) and LV.is_hom(lv(3), lv(3), lv(5))
        out = LV.compose(lv(4), lv(3), lv(5))
        assert out == lv(6)
        assert LV.is_hom(lv(2), lv(3), out)

    def test_identity_laws(self):
        u = lv(4)  # 2 -> 3
        assert LV.compose(LV.identity(lv(2)), lv(2), u) == u
        assert LV.compose(u, lv(3), LV.identity(lv(3))) == u

    def test_three_expressions_agree_exhaustively(self, boolean, luk3, nilmin5):
        # construction already verifies this; recheck against the tables
        for q in (boolean, luk3, nilmin5):
            dq = diagonal_quantaloid(q)
            for p, m, r in itertools.product(q.payloads(), repeat=3):
                for uu in dq.hom(p, m):
                    for vv in dq.hom(m, r):
                        over = q._residual_left(vv, m)
                        under = q._residual_right(m, uu)
                        out = dq.compose(uu, m, vv)
                        assert out == q._tensor(over, uu) == q._tensor(vv, under)
                        assert out == q._tensor(q._tensor(over, m), under)
                        assert dq.is_hom(p, r, out)

    def test_associativity_exhaustive(self, luk3, nilmin5):
        for q in (luk3, nilmin5):
            dq = diagonal_quantaloid(q)
            objs = q.payloads()
            for p, m, r, s in itertools.product(objs, repeat=4):
                for uu in dq.hom(p, m):
                    for vv in dq.hom(m, r):
                        for ww in dq.hom(r, s):
                            left = dq.compose(dq.compose(uu, m, vv), r, ww)
                            right = dq.compose(uu, m, dq.compose(vv, r, ww))
                            assert left == right

    def test_extended_rational_associativity_sampled(self):
        rng = random.Random(202)
        pool = rational_pool(202)
        dq = diagonal_quantaloid(LAWVERE)
        for _ in range(400):
            p, m, r, s = (rng.choice(pool) for _ in range(4))
            u = max(p, m) + rng.choice(pool[:8])
            v = max(m, r) + rng.choice(pool[:8])
            w = max(r, s) + rng.choice(pool[:8])
            left = dq.compose(dq.compose(u, m, v), r, w)
            right = dq.compose(u, m, dq.compose(v, r, w))
            assert left == right
            assert dq.compose(u, m, dq.identity(m)) == u
            assert dq.compose(dq.identity(p), p, u) == u

    def test_boolean_composition_table(self, boolean):
        # over the two-element instance diagonals compose like meets
        dq = diagonal_quantaloid(boolean)
        for p, m, r in itertools.product(boolean.payloads(), repeat=3):
            for uu in dq.hom(p, m):
                for vv in dq.hom(m, r):
                    assert dq.compose(uu, m, vv) == boolean.meet_table[uu][vv]


class TestResiduation:
    def test_extended_rational_closed_form_example(self):
        # w = 4: 1 -> 2 over u = 3: 1 -> 2 is max(2, 2, 4 + 2 - 3) = 3: 2 -> 2
        assert LV.is_hom(lv(1), lv(2), lv(3)) and LV.is_hom(lv(1), lv(2), lv(4))
        out = LV.limpl(lv(2), lv(2), lv(3), lv(4))
        assert out == lv(3)
        assert LV.is_hom(lv(2), lv(2), out)

    def test_residual_by_identity(self):
        w = lv(4)  # 1 -> 2
        assert LV.limpl(lv(1), lv(2), LV.identity(lv(1)), w) == w
        assert LV.rimpl(lv(1), lv(2), LV.identity(lv(2)), w) == w

    def test_finite_residuals_satisfy_adjunction(self, boolean, luk3, nilmin5):
        for q in (boolean, luk3, nilmin5):
            dq = diagonal_quantaloid(q)
            for p, m, r in itertools.product(q.payloads(), repeat=3):
                for uu in dq.hom(p, m):
                    for ww in dq.hom(p, r):
                        res = dq.limpl(m, r, uu, ww)
                        assert dq.is_hom(m, r, res)
                        for vv in dq.hom(m, r):
                            leq = q.leq_table
                            assert leq[dq.compose(uu, m, vv)][ww] == leq[vv][res]
                for vv in dq.hom(m, r):
                    for ww in dq.hom(p, r):
                        res = dq.rimpl(p, m, vv, ww)
                        assert dq.is_hom(p, m, res)
                        for uu in dq.hom(p, m):
                            leq = q.leq_table
                            assert leq[dq.compose(uu, m, vv)][ww] == leq[uu][res]

    def test_closed_form_matches_grid_oracle(self):
        # feasibility plus dominance over every grid competitor
        dq = diagonal_quantaloid(LAWVERE)
        pool = rational_pool(41)
        checked = 0
        for p in pool:
            for q in pool:
                for extra in pool:
                    u = max(p, q)
                    w = max(p, extra, p + extra.monus(p))  # arbitrary hom(p, r) value
                    r = extra
                    if not (w >= max(p, r)):
                        continue
                    cf = dq.limpl(q, r, u, w)
                    checked += 1
                    assert cf >= max(q, r)  # lands in hom(q, r)
                    assert cf.monus(q) + u >= w  # feasible: compose <= w
                    for v in pool:
                        if v >= max(q, r) and v.monus(q) + u >= w:
                            assert v >= cf  # no feasible grid point beats it
        assert checked > 200


class TestInvolutionLift:
    def test_diagonal_iff_involution_diagonal(self, boolean, luk3, nilmin5, diamond):
        for q in (boolean, luk3, nilmin5, diamond):
            dq = diagonal_quantaloid(q)
            for p in q.payloads():
                for t in q.payloads():
                    for u in q.payloads():
                        assert dq.is_hom(p, t, u) == dq.is_hom(
                            q._involve(t), q._involve(p), q._involve(u)
                        )

    def test_symmetric_objects_of_commutative_instances_are_everything(
        self, boolean, luk3, nilmin5, diamond
    ):
        for q in (boolean, luk3, nilmin5, diamond):
            assert diagonal_quantaloid(q).objects() == tuple(q.payloads())


# -- the order, join, involution and names each kernel realizes --------------


class TestKernelOpsAgainstTheQuantale:
    def test_lawvere_closed_forms_match_the_reference_ops(self):
        ref, rng = LAWVERE_REFERENCE, random.Random(61)
        pool = rational_pool(61, count=24)
        assert ZERO in pool and INF in pool
        assert LV.hom_join(ZERO, ZERO, []) == ref._join([]) == INF
        assert LV.hom_join(ZERO, ZERO, iter(())) == INF
        for a in pool:
            assert LV.involve(a) == ref._involve(a)
            assert LV.is_object(a) == (ref._involve(a) == a)
            assert LV.format(a) == ref.format_value(a)
            assert LV.hom_bottom(a, rng.choice(pool)) == ref.bottom
            for b in pool:
                assert LV.leq(a, b) == ref._leq(a, b)
        for size in range(1, 6):
            for _ in range(200):
                values = [rng.choice(pool) for _ in range(size)]
                p, t = rng.choice(pool), rng.choice(pool)
                assert LV.hom_join(p, t, values) == ref._join(values)
                assert LV.hom_join(p, t, iter(values)) == ref._join(values)

    @pytest.mark.parametrize(
        "fixture", ["boolean", "luk3", "luk5", "nilmin5", "diamond", "diamond_swap"]
    )
    def test_finite_ops_match_the_quantale_tables(self, request, fixture):
        q = request.getfixturevalue(fixture)
        dq, rng = diagonal_quantaloid(q), q.payloads()
        assert dq.objects() == tuple(t for t in rng if q.involution_table[t] == t)
        for a in rng:
            assert dq.involve(a) == q.involution_table[a]
            assert dq.is_object(a) == (q.involution_table[a] == a)
            assert dq.format(a) == q.elements[a]
        for p, t in itertools.product(rng, repeat=2):
            assert dq.hom_bottom(p, t) == q.bottom
            assert dq.hom_join(p, t, ()) == q.bottom
            assert dq.hom_top(p, t) == q._join(dq.hom(p, t))
            assert dq.leq(p, t) == q.leq_table[p][t]
            for size in range(1, 4):
                for values in itertools.product(rng, repeat=size):
                    expected = q.bottom
                    for v in values:
                        expected = q.join_table[expected][v]
                    assert dq.hom_join(p, t, values) == expected
                    assert dq.hom_join(p, t, iter(values)) == expected


# -- the Lawvere residuals in one step against the three-op form -------------

# 0, infinity, integers, fractions over shared and over coprime denominators,
# and values past 10**12
RESIDUAL_POOL = [ZERO, INF] + [
    ExtRat(Fraction(n, d))
    for n, d in [
        (1, 1), (3, 1), (7, 1), (1, 4), (3, 4), (5, 4), (2, 3), (5, 7), (11, 13),
        (10**12 + 1, 1), (10**13 + 3, 7), (3 * 10**15 + 1, 10**12 + 39),
    ]
]


def assert_residuals_match(quadruples) -> int:
    """``LV.limpl`` and ``LV.rimpl`` on each quadruple equal the three-op
    ``LAWVERE_REFERENCE`` as values and as text, and are the floor argument
    itself, not a new value, whenever the floor max(a, b) wins.  Returns how
    many quadruples the difference wins in."""
    ref = LAWVERE_REFERENCE
    won = 0
    for args in quadruples:
        floor = max(args[0], args[1])
        left = ref.limpl(*args)
        for got, expected in ((LV.limpl(*args), left), (LV.rimpl(*args), ref.rimpl(*args))):
            assert got == expected and str(got) == str(expected), (args, got, expected)
            if expected == floor:
                assert got is floor, args
        won += left != floor
    return won


def assert_residuals_match_reference(seed: int, count: int, limit: int = 10**9) -> int:
    """``assert_residuals_match`` on ``count`` seeded quadruples whose
    numerators and denominators go up to ``limit``, with 0 and infinity mixed
    in; the difference must win in some of them and the floor in others."""
    rng = random.Random(seed)

    def draw():
        roll = rng.random()
        if roll < 0.05:
            return INF
        if roll < 0.1:
            return ZERO
        return ExtRat(Fraction(rng.randint(0, limit), rng.randint(1, limit)))

    won = assert_residuals_match((draw(), draw(), draw(), draw()) for _ in range(count))
    assert 0 < won < count
    return won


def split_partial_metric(rng, n_points):
    """A random partial metric on ``n_points`` whose two halves lie at
    infinite distance from each other, one of them with infinite edges too."""
    half = n_points // 2
    left = random_partial_metric(rng, half, allow_inf=True)
    right = random_partial_metric(rng, n_points - half)
    alpha = tuple(row + (INF,) * (n_points - half) for row in left.alpha) + tuple(
        (INF,) * half + row for row in right.alpha
    )
    space = ParMetSpace(tuple(f"p{i}" for i in range(n_points)), alpha)
    assert validate_partial_metric(space).valid
    return space


class TestLawvereResidualsOnPairs:
    def test_every_quadruple_of_the_pool_matches_the_three_op_form(self):
        won = assert_residuals_match(itertools.product(RESIDUAL_POOL, repeat=4))
        assert 0 < won < len(RESIDUAL_POOL) ** 4

    def test_conventions_at_zero_and_infinity(self):
        one, two = ExtRat(1), ExtRat(2)
        # anything monus infinity is 0, infinity monus infinity included
        assert LV.limpl(one, two, INF, INF) is two
        assert LV.rimpl(two, one, INF, INF) is two
        # infinity monus a finite value is infinity
        assert LV.limpl(one, two, ExtRat(5), INF) == INF
        assert LV.rimpl(one, two, ExtRat(5), INF) == INF
        # a difference at 0 or below leaves the floor, which is returned itself
        assert LV.limpl(ZERO, ZERO, ExtRat(3), one) is ZERO
        # a difference above the floor is reduced: 3/4 + 1/4 - 1/2 = 1/2
        quarter = ExtRat(Fraction(1, 4))
        half = LV.limpl(quarter, ZERO, ExtRat(Fraction(1, 2)), ExtRat(Fraction(3, 4)))
        assert (half._n, half._d) == (1, 2) and str(half) == "1/2"

    def test_seeded_random_quadruples(self):
        assert assert_residuals_match_reference(5, 4000) > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_rel_residual_on_partial_metrics_matches_the_cells(self, seed):
        rng = random.Random(700 + seed)
        for n_points in (8, 13, 24):
            if seed % 2:
                space = split_partial_metric(rng, n_points)
            else:
                space = random_partial_metric(rng, n_points, allow_inf=True)
            hom = to_category(space).hom
            carrier = hom.source
            # a second typed relation on the same carrier: each entry above
            # its hom's top, some infinite
            other = QRelation(
                carrier,
                carrier,
                tuple(
                    tuple(
                        INF if rng.random() < 0.1
                        else max(p, t) + ExtRat(Fraction(rng.randint(0, 9), rng.choice((1, 2, 3))))
                        for t in carrier.types
                    )
                    for p in carrier.types
                ),
            )
            for side in ("left", "right"):
                for outer, inner in ((hom, hom), (other, hom), (hom, other)):
                    got = rel_residual(side, outer, inner).entries
                    expected = lawvere_rel_residual(side, outer, inner)
                    assert got == expected
                    assert [[str(v) for v in row] for row in got] == [
                        [str(v) for v in row] for row in expected
                    ]
            # hom is transitive and reflexive, so hom <swarrow> hom = hom
            assert rel_residual("left", hom, hom).entries == hom.entries


# -- the finite kernel against the exhaustive definitions it tabulates -------


def reference_hom(q, p, t):
    return tuple(
        u
        for u in q.payloads()
        if q._tensor(q._residual_left(u, p), p) == u == q._tensor(t, q._residual_right(t, u))
    )


def reference_compose(q, u, mid, v):
    return q._tensor(q._residual_left(v, mid), u)


def reference_limpl(q, mid, r, u, w):
    return q._join(
        v for v in reference_hom(q, mid, r) if q.leq_table[reference_compose(q, u, mid, v)][w]
    )


def reference_rimpl(q, p, mid, v, w):
    return q._join(
        u for u in reference_hom(q, p, mid) if q.leq_table[reference_compose(q, u, mid, v)][w]
    )


def reference_hom_meet(q, p, t, values):
    return q._join(
        v for v in reference_hom(q, p, t) if all(q.leq_table[v][s] for s in values)
    )


class TestFiniteKernelTables:
    @pytest.mark.parametrize(
        "name",
        ["boolean", "lukasiewicz3", "lukasiewicz5", "nilmin5", "diamond",
         "mutated_lukasiewicz3"],
    )
    def test_tables_match_exhaustive_joins(self, name):
        q = load_quantale(DATA / f"{name}.json")
        dq = diagonal_quantaloid(q)
        rng = q.payloads()
        for p, t in itertools.product(rng, repeat=2):
            assert dq.hom(p, t) == reference_hom(q, p, t)
        for u, mid, v in itertools.product(rng, repeat=3):
            assert dq.compose(u, mid, v) == reference_compose(q, u, mid, v)
        for a, b, c, d in itertools.product(rng, repeat=4):
            assert dq.limpl(a, b, c, d) == reference_limpl(q, a, b, c, d)
            assert dq.rimpl(a, b, c, d) == reference_rimpl(q, a, b, c, d)
        for p, t in itertools.product(rng, repeat=2):
            for size in range(4):
                for values in itertools.product(rng, repeat=size):
                    expected = reference_hom_meet(q, p, t, values)
                    assert dq.hom_meet(p, t, list(values)) == expected
                    assert dq.hom_meet(p, t, iter(values)) == expected

    @pytest.mark.parametrize(
        "fixture", ["boolean", "luk3", "luk5", "nilmin5", "diamond", "diamond_swap"]
    )
    def test_column_tables_agree_with_the_kernel_calls(self, request, fixture):
        quantale = request.getfixturevalue(fixture)
        dq = diagonal_quantaloid(quantale)
        rng = quantale.payloads()
        for q in rng:
            codes, join, leq, involve, residual, decoders = dq.column_tables(q)
            # the join that grows a search's lower bounds, inside every hom
            for p in rng:
                hom = dq.hom(p, q)
                for a, b in itertools.product(hom, repeat=2):
                    assert join[a][b] == dq.hom_join(p, q, (a, b))
                    assert join[a][b] in hom
            for a in rng:
                assert involve[a] == dq.involve(a)
            for a, b in itertools.product(rng, repeat=2):
                assert codes[quantale.meet_table[a][b]] == codes[a] & codes[b]
                assert leq[a][b] == dq.leq(a, b)
            for t, u, w in itertools.product(rng, repeat=3):
                assert residual[t][u][w] == dq.limpl(q, t, u, w)
            # the two-argument hom meet of the tight-column search, capped
            # and involuted from the AND of two codes
            for t, a, b in itertools.product(rng, repeat=3):
                capped = dq.hom_meet(q, t, (a, b))
                assert decoders[t][codes[a] & codes[b]] == dq.involve(capped)
                assert dq.is_hom(involve[t], involve[q], decoders[t][codes[a] & codes[b]])

    def test_mutated_boolean_refused(self):
        q = load_quantale(DATA / "mutated_boolean.json")
        with pytest.raises(PreconditionError) as info:
            diagonal_quantaloid(q)
        assert str(info.value) == "identity 1 is not a diagonal on itself"

    def test_kernel_does_not_keep_its_quantale_alive(self):
        q = load_quantale(DATA / "lukasiewicz3.json")
        diagonal_quantaloid(q)
        ref = weakref.ref(q)
        del q
        gc.collect()
        assert ref() is None


def meet_from_order(leq):
    """The meet table of a finite lattice given by its order (test-side)."""
    n = len(leq)
    meet = [[None] * n for _ in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        lower = [c for c in range(n) if leq[c][a] and leq[c][b]]
        (meet[a][b],) = [c for c in lower if all(leq[d][c] for d in lower)]
    return meet


def order_from_covers(n, covers):
    """The reflexive-transitive closure of the (lower, upper) cover pairs."""
    leq = [[a == b for b in range(n)] for a in range(n)]
    for _ in range(n):
        for a, b in covers:
            for c in range(n):
                if leq[c][a]:
                    leq[c][b] = True
    return leq


# bottom 0, top 4: N5 is 0 < 1 < 2 < 4 with 0 < 3 < 4; M3 has 1, 2, 3 side
# by side.  Neither is distributive, and the codes need no distributivity.
NON_DISTRIBUTIVE = {
    "N5": order_from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]),
    "M3": order_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
}


class TestJoinIrreducibleCodes:
    """enc(a meet b) = enc(a) & enc(b), and dec(enc(a)) = a."""

    @staticmethod
    def assert_laws(leq, meet):
        codes = _join_irreducible_codes(leq)
        decode = {code: a for a, code in enumerate(codes)}
        n = len(leq)
        for a in range(n):
            assert decode[codes[a]] == a
        for a, b in itertools.product(range(n), repeat=2):
            assert codes[meet[a][b]] == codes[a] & codes[b], (a, b)
        return codes

    @pytest.mark.parametrize(
        "fixture", ["boolean", "luk3", "luk5", "nilmin5", "diamond", "diamond_swap"]
    )
    def test_laws_on_every_shipped_quantale(self, request, fixture):
        quantale = request.getfixturevalue(fixture)
        codes = self.assert_laws(quantale.leq_table, quantale.meet_table)
        assert diagonal_quantaloid(quantale).column_tables(quantale.top)[0] == codes

    @pytest.mark.parametrize("name", sorted(NON_DISTRIBUTIVE))
    def test_laws_on_non_distributive_lattices(self, name):
        leq = NON_DISTRIBUTIVE[name]
        meet = meet_from_order(leq)
        join = meet_from_order([list(column) for column in zip(*leq)])  # the dual's meet
        assert any(
            meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]
            for a, b, c in itertools.product(range(5), repeat=3)
        )
        self.assert_laws(leq, meet)

    def test_the_codes_of_n5_and_m3(self):
        # N5's join-irreducibles are 1, 2 and 3; M3's are its three atoms
        n5, m3 = (_join_irreducible_codes(NON_DISTRIBUTIVE[name]) for name in ("N5", "M3"))
        assert n5 == (0b000, 0b001, 0b011, 0b100, 0b111)
        assert m3 == (0b000, 0b001, 0b010, 0b100, 0b111)
