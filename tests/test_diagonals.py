import gc
import itertools
import random
import weakref
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest

from enritch.diagonals import diagonal_quantaloid
from enritch.errors import PreconditionError, UnsupportedQuantaleError
from enritch.fileio import load_quantale
from enritch.quantale import LAWVERE
from enritch.rationals import INF, ZERO, ExtRat

from oracles import reference_is_divisible

DATA = Path(str(files("enritch") / "data"))


def lv(x):
    return LAWVERE.parse_value(x)


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
        q = LAWVERE
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
                        expected = q._leq(u, q._meet((p, t)))
                        assert dq.is_hom(p, t, u) == expected

    def test_nondivisible_instance_has_proper_hom(self, nilmin5):
        # 1/4 <= 3/4 but 1/4 is not a diagonal 3/4 -> 3/4
        dq = diagonal_quantaloid(nilmin5)
        q34 = nilmin5.parse_value("3/4")
        q14 = nilmin5.parse_value("1/4")
        assert nilmin5._leq(q14, q34)
        assert not dq.is_hom(q34, q34, q14)
        assert dq.is_hom(q34, q34, nilmin5.parse_value("1/2"))

    def test_bottom_always_a_diagonal(self, boolean, luk3, nilmin5, diamond):
        for q in (boolean, luk3, nilmin5, diamond):
            dq = diagonal_quantaloid(q)
            for p in q.payloads():
                for t in q.payloads():
                    assert dq.is_hom(p, t, q.bottom)


class TestHomEnumeration:
    def test_boolean_full_hom(self, boolean):
        one = boolean.parse_value("1")
        assert diagonal_quantaloid(boolean).hom(one, one) == (0, 1)

    def test_boolean_mixed_hom_is_bottom_only(self, boolean):
        one, zero = boolean.parse_value("1"), boolean.parse_value("0")
        assert diagonal_quantaloid(boolean).hom(one, zero) == (0,)

    def test_lukasiewicz_half_hom(self, luk3):
        half = luk3.parse_value("1/2")
        names = [luk3.format_value(u) for u in diagonal_quantaloid(luk3).hom(half, half)]
        assert names == ["0", "1/2"]

    def test_identity_morphism_only_on_equal_objects(self, luk3):
        dq = diagonal_quantaloid(luk3)
        for p in luk3.payloads():
            assert dq.is_hom(p, p, dq.identity(p))
            # the identity is the top of its endo-hom
            assert dq.hom_top(p, p) == dq.identity(p)

    def test_lawvere_enumeration_unsupported(self):
        with pytest.raises(UnsupportedQuantaleError):
            LV.hom(lv(0), lv(1))


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
                    assert dq.compose(uu, m, vv) == boolean._meet((uu, vv))


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
                            assert q._leq(dq.compose(uu, m, vv), ww) == q._leq(vv, res)
                for vv in dq.hom(m, r):
                    for ww in dq.hom(p, r):
                        res = dq.rimpl(p, m, vv, ww)
                        assert dq.is_hom(p, m, res)
                        for uu in dq.hom(p, m):
                            assert q._leq(dq.compose(uu, m, vv), ww) == q._leq(uu, res)

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
        v for v in reference_hom(q, mid, r) if q._leq(reference_compose(q, u, mid, v), w)
    )


def reference_rimpl(q, p, mid, v, w):
    return q._join(
        u for u in reference_hom(q, p, mid) if q._leq(reference_compose(q, u, mid, v), w)
    )


def reference_hom_meet(q, p, t, values):
    return q._join(
        v for v in reference_hom(q, p, t) if all(q._leq(v, s) for s in values)
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
            meet, leq, involve, top, residual, hom_meet = dq.column_tables(q)
            assert top == quantale._meet(())
            for a in rng:
                assert involve[a] == dq.involve(a)
            for a, b in itertools.product(rng, repeat=2):
                assert meet[a][b] == quantale._meet((a, b))
                assert leq[a][b] == dq.leq(a, b)
            for t, u, w in itertools.product(rng, repeat=3):
                assert residual[t][u][w] == dq.limpl(q, t, u, w)
            for t, m in itertools.product(rng, repeat=2):
                assert hom_meet[t][m] == dq.hom_meet(q, t, (m,))
            # the two-argument hom meet of the tight-column search
            for t, a, b in itertools.product(rng, repeat=3):
                assert hom_meet[t][meet[a][b]] == dq.hom_meet(q, t, (a, b))

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
