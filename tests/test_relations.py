import itertools
import random

import pytest

from enritch.categories import QCategory
from enritch.diagonals import diagonal_quantaloid
from enritch.errors import PreconditionError, ShapeMismatchError
from enritch.quantale import LAWVERE
from enritch.relations import (
    QRelation,
    TypedSet,
    rel_compose,
    rel_involve,
    rel_residual,
)

from conftest import value
from oracles import bottom_relation, rel_identity, rel_join, rel_leq, rel_meet, single_set


def typed_set(quantale, names, types):
    dq = diagonal_quantaloid(quantale)
    return TypedSet(dq, tuple(names), tuple(value(quantale, t) for t in types))


def random_relation(rng, src: TypedSet, tgt: TypedSet) -> QRelation:
    dq = src.quantaloid
    entries = tuple(
        tuple(
            rng.choice(dq.hom(src.types[i], tgt.types[j]))
            for j in range(len(tgt))
        )
        for i in range(len(src))
    )
    return QRelation(src, tgt, entries)


def random_sets(rng, quantale, max_size=3):
    dq = diagonal_quantaloid(quantale)
    n = rng.randint(0, max_size)
    types = tuple(rng.choice(dq.objects()) for _ in range(n))
    names = tuple(f"p{k}" for k in range(n))
    return TypedSet(dq, names, types)


class TestConstruction:
    def test_entry_validation(self, boolean):
        x = typed_set(boolean, ["a"], ["0"])
        y = typed_set(boolean, ["b"], ["1"])
        with pytest.raises(PreconditionError):
            QRelation(x, y, ((value(boolean, "1"),),))

    def test_shape_validation(self, boolean):
        x = typed_set(boolean, ["a", "b"], ["1", "1"])
        with pytest.raises(ShapeMismatchError):
            QRelation(x, x, ((value(boolean, "0"),),))

    def test_empty_sets_are_legal(self, boolean):
        empty = typed_set(boolean, [], [])
        rel = QRelation(empty, empty, ())
        assert rel_compose(rel, rel) == rel
        assert rel_identity(empty) == rel


class TestIdentityAndComposition:
    def test_one_point_identity(self, luk3):
        x = typed_set(luk3, ["a"], ["1/2"])
        ident = rel_identity(x)
        assert ident.entries == ((value(luk3, "1/2"),),)

    def test_identity_neutral(self, luk3):
        rng = random.Random(3)
        x = typed_set(luk3, ["a", "b"], ["1", "1/2"])
        y = typed_set(luk3, ["c"], ["1"])
        phi = random_relation(rng, x, y)
        assert rel_compose(phi, rel_identity(x)) == phi
        assert rel_compose(rel_identity(y), phi) == phi
        assert rel_compose(rel_identity(x), rel_identity(x)) == rel_identity(x)

    def test_extended_rational_offdiagonal_identity_is_infinite(self):
        x = typed_set(LAWVERE, ["a", "b"], ["1", "2"])
        ident = rel_identity(x)
        assert str(ident.entries[0][1]) == "inf"
        assert str(ident.entries[1][0]) == "inf"

    def test_extended_rational_singleton_composition(self):
        xs = typed_set(LAWVERE, ["x"], ["0"])
        ys = typed_set(LAWVERE, ["y"], ["0"])
        zs = typed_set(LAWVERE, ["z"], ["0"])
        phi = QRelation(xs, ys, ((value(LAWVERE, "2"),),))
        psi = QRelation(ys, zs, ((value(LAWVERE, "3"),),))
        assert str(rel_compose(psi, phi).entries[0][0]) == "5"

    def test_boolean_matches_ordinary_relation_composition(self, boolean):
        rng = random.Random(9)
        one = value(boolean, "1")
        x = typed_set(boolean, ["a", "b"], ["1", "1"])
        y = typed_set(boolean, ["c", "d", "e"], ["1", "1", "1"])
        z = typed_set(boolean, ["f", "g"], ["1", "1"])
        for _ in range(30):
            phi = random_relation(rng, x, y)
            psi = random_relation(rng, y, z)
            out = rel_compose(psi, phi)
            for i in range(2):
                for k in range(2):
                    expected = any(
                        phi.entries[i][j] == one and psi.entries[j][k] == one
                        for j in range(3)
                    )
                    assert (out.entries[i][k] == one) == expected

    def test_empty_middle_gives_bottom(self, boolean):
        x = typed_set(boolean, ["a"], ["1"])
        empty = typed_set(boolean, [], [])
        left = QRelation(x, empty, ((),))
        right = QRelation(empty, x, ())
        assert rel_compose(right, left) == bottom_relation(x, x)

    def test_associativity_sampled(self, boolean, luk3):
        rng = random.Random(17)
        for quantale in (boolean, luk3):
            for _ in range(40):
                w, x, y, z = (random_sets(rng, quantale) for _ in range(4))
                phi = random_relation(rng, w, x)
                psi = random_relation(rng, x, y)
                xi = random_relation(rng, y, z)
                assert rel_compose(xi, rel_compose(psi, phi)) == rel_compose(
                    rel_compose(xi, psi), phi
                )


class TestOrderAndResiduals:
    def test_leq_reflexive_and_bottom(self, luk3):
        rng = random.Random(31)
        x = random_sets(rng, luk3)
        y = random_sets(rng, luk3)
        phi = random_relation(rng, x, y)
        assert rel_leq(phi, phi)
        assert rel_leq(bottom_relation(x, y), phi)

    def test_leq_requires_parallel(self, luk3):
        x = typed_set(luk3, ["a"], ["1"])
        y = typed_set(luk3, ["b"], ["1/2"])
        phi = rel_identity(x)
        psi = rel_identity(y)
        with pytest.raises(ShapeMismatchError):
            rel_leq(phi, psi)

    def test_extended_rational_leq_is_entrywise_reversed(self):
        x = typed_set(LAWVERE, ["a"], ["0"])
        small = QRelation(x, x, ((value(LAWVERE, "5"),),))
        big = QRelation(x, x, ((value(LAWVERE, "2"),),))
        assert rel_leq(small, big)
        assert not rel_leq(big, small)

    def test_residual_by_identity(self, luk3):
        rng = random.Random(12)
        x = typed_set(luk3, ["a", "b"], ["1", "1/2"])
        y = typed_set(luk3, ["c"], ["1"])
        xi = random_relation(rng, x, y)
        assert rel_residual("left", xi, rel_identity(x)) == xi
        xi2 = random_relation(rng, y, x)
        assert rel_residual("right", xi2, rel_identity(x)) == xi2

    def test_boolean_residual_matches_classical_formula(self, boolean):
        rng = random.Random(4)
        one = value(boolean, "1")
        x = typed_set(boolean, ["a", "b"], ["1", "1"])
        y = typed_set(boolean, ["c", "d"], ["1", "1"])
        z = typed_set(boolean, ["e", "f"], ["1", "1"])
        for _ in range(40):
            phi = random_relation(rng, x, y)
            xi = random_relation(rng, x, z)
            out = rel_residual("left", xi, phi)
            for j in range(2):
                for k in range(2):
                    classical = all(
                        not (phi.entries[i][j] == one) or (xi.entries[i][k] == one)
                        for i in range(2)
                    )
                    assert (out.entries[j][k] == one) == classical

    def test_adjunction_property_sampled(self, boolean, luk3, nilmin5):
        rng = random.Random(77)
        for quantale in (boolean, luk3, nilmin5):
            for _ in range(30):
                x, y, z = (random_sets(rng, quantale) for _ in range(3))
                phi = random_relation(rng, x, y)
                psi = random_relation(rng, y, z)
                xi = random_relation(rng, x, z)
                composed_ok = rel_leq(rel_compose(psi, phi), xi)
                left_ok = rel_leq(psi, rel_residual("left", xi, phi))
                right_ok = rel_leq(phi, rel_residual("right", xi, psi))
                assert composed_ok == left_ok == right_ok

    def test_empty_index_residual_is_hom_top(self, boolean):
        x = typed_set(boolean, [], [])
        y = typed_set(boolean, ["a"], ["1"])
        z = typed_set(boolean, ["b"], ["1"])
        phi = QRelation(x, y, ())
        xi = QRelation(x, z, ())
        out = rel_residual("left", xi, phi)
        assert out.entries[0][0] == value(boolean, "1")


class TestInvolution:
    def test_involution_is_involutive(self, luk3):
        rng = random.Random(8)
        x, y = random_sets(rng, luk3), random_sets(rng, luk3)
        phi = random_relation(rng, x, y)
        assert rel_involve(rel_involve(phi)) == phi

    def test_symmetric_matrix_fixed(self, luk3):
        x = typed_set(luk3, ["a", "b"], ["1", "1"])
        half = value(luk3, "1/2")
        one = value(luk3, "1")
        phi = QRelation(x, x, ((one, half), (half, one)))
        assert rel_involve(phi) == phi

    def test_involution_reverses_composition(self, boolean, luk3):
        rng = random.Random(123)
        for quantale in (boolean, luk3):
            for _ in range(30):
                x, y, z = (random_sets(rng, quantale) for _ in range(3))
                phi = random_relation(rng, x, y)
                psi = random_relation(rng, y, z)
                lhs = rel_involve(rel_compose(psi, phi))
                rhs = rel_compose(rel_involve(phi), rel_involve(psi))
                assert lhs == rhs

    def test_involution_distributes_over_joins_and_residuals(self, luk3):
        rng = random.Random(6)
        for _ in range(25):
            x, y, z = (random_sets(rng, luk3) for _ in range(3))
            phi = random_relation(rng, x, y)
            phi2 = random_relation(rng, x, y)
            assert rel_involve(rel_join([phi, phi2])) == rel_join(
                [rel_involve(phi), rel_involve(phi2)]
            )
            xi = random_relation(rng, x, z)
            # (xi <swl> phi) deg = phi deg <srd> xi deg
            lhs = rel_involve(rel_residual("left", xi, phi))
            rhs = rel_residual("right", rel_involve(xi), rel_involve(phi))
            assert lhs == rhs

    def test_join_meet_shape_errors(self, luk3):
        with pytest.raises(ShapeMismatchError):
            rel_join([])
        with pytest.raises(ShapeMismatchError):
            rel_meet([])


class TestExhaustiveBooleanCore:
    """Every law over every relation on a fixed two-point Boolean set."""

    def _all_relations(self, boolean, src, tgt):
        dq = src.quantaloid
        pools = [
            dq.hom(src.types[i], tgt.types[j])
            for i in range(len(src))
            for j in range(len(tgt))
        ]
        n_tgt = len(tgt)
        for flat in itertools.product(*pools):
            entries = tuple(
                tuple(flat[i * n_tgt + j] for j in range(n_tgt))
                for i in range(len(src))
            )
            yield QRelation(src, tgt, entries)

    def test_adjunction_and_associativity_exhaustive(self, boolean):
        x = typed_set(boolean, ["a", "b"], ["1", "1"])
        relations = list(self._all_relations(boolean, x, x))
        assert len(relations) == 16
        ident = rel_identity(x)
        for phi in relations:
            assert rel_compose(phi, ident) == phi
            assert rel_compose(ident, phi) == phi
            for psi in relations:
                for xi in relations:
                    assert rel_leq(rel_compose(psi, phi), xi) == rel_leq(
                        psi, rel_residual("left", xi, phi)
                    ) == rel_leq(phi, rel_residual("right", xi, psi))
                    assert rel_compose(xi, rel_compose(psi, phi)) == rel_compose(
                        rel_compose(xi, psi), phi
                    )

    def test_involution_laws_exhaustive(self, boolean):
        x = typed_set(boolean, ["a", "b"], ["1", "1"])
        relations = list(self._all_relations(boolean, x, x))
        for phi in relations:
            assert rel_involve(rel_involve(phi)) == phi
            for psi in relations:
                assert rel_involve(rel_compose(psi, phi)) == rel_compose(
                    rel_involve(phi), rel_involve(psi)
                )
                assert rel_involve(rel_join([phi, psi])) == rel_join(
                    [rel_involve(phi), rel_involve(psi)]
                )
                assert rel_involve(rel_residual("left", psi, phi)) == rel_residual(
                    "right", rel_involve(psi), rel_involve(phi)
                )


class TestExtendedRationalSampling:
    """The same laws over the infinite instance, on seeded rational data."""

    def _random_lawvere_set(self, rng, max_size=3):
        from enritch.diagonals import diagonal_quantaloid
        from enritch.rationals import ExtRat
        from fractions import Fraction

        dq = diagonal_quantaloid(LAWVERE)
        n = rng.randint(0, max_size)
        types = tuple(
            ExtRat(Fraction(rng.randint(0, 8), rng.choice((1, 2, 4))))
            for _ in range(n)
        )
        return TypedSet(dq, tuple(f"p{k}" for k in range(n)), types)

    def _random_lawvere_relation(self, rng, src, tgt):
        from enritch.rationals import INF, ExtRat
        from fractions import Fraction

        entries = tuple(
            tuple(
                INF
                if rng.random() < 0.1
                else max(src.types[i], tgt.types[j])
                + ExtRat(Fraction(rng.randint(0, 8), rng.choice((1, 2, 4))))
                for j in range(len(tgt))
            )
            for i in range(len(src))
        )
        return QRelation(src, tgt, entries)

    def test_composition_laws_sampled(self):
        rng = random.Random(271)
        for _ in range(60):
            w, x, y, z = (self._random_lawvere_set(rng) for _ in range(4))
            phi = self._random_lawvere_relation(rng, w, x)
            psi = self._random_lawvere_relation(rng, x, y)
            xi = self._random_lawvere_relation(rng, y, z)
            assert rel_compose(xi, rel_compose(psi, phi)) == rel_compose(
                rel_compose(xi, psi), phi
            )
            assert rel_compose(phi, rel_identity(w)) == phi
            assert rel_compose(rel_identity(x), phi) == phi

    def test_adjunctions_sampled(self):
        rng = random.Random(828)
        for _ in range(60):
            x, y, z = (self._random_lawvere_set(rng) for _ in range(3))
            phi = self._random_lawvere_relation(rng, x, y)
            psi = self._random_lawvere_relation(rng, y, z)
            xi = self._random_lawvere_relation(rng, x, z)
            composed_ok = rel_leq(rel_compose(psi, phi), xi)
            left_ok = rel_leq(psi, rel_residual("left", xi, phi))
            right_ok = rel_leq(phi, rel_residual("right", xi, psi))
            assert composed_ok == left_ok == right_ok
            # counit and unit of the residuation adjunction
            assert rel_leq(
                rel_compose(rel_residual("left", xi, phi), phi), xi
            )
            assert rel_leq(
                rel_compose(psi, rel_residual("right", xi, psi)), xi
            )

    def test_involution_laws_sampled(self):
        rng = random.Random(515)
        for _ in range(60):
            x, y, z = (self._random_lawvere_set(rng) for _ in range(3))
            phi = self._random_lawvere_relation(rng, x, y)
            psi = self._random_lawvere_relation(rng, y, z)
            xi = self._random_lawvere_relation(rng, x, z)
            assert rel_involve(rel_involve(phi)) == phi
            assert rel_involve(rel_compose(psi, phi)) == rel_compose(
                rel_involve(phi), rel_involve(psi)
            )
            assert rel_involve(rel_residual("left", xi, phi)) == rel_residual(
                "right", rel_involve(xi), rel_involve(phi)
            )


class TestSerialization:
    def test_round_trip_dict(self, luk3):
        x = typed_set(luk3, ["a", "b"], ["1", "1/2"])
        data = QCategory(x, rel_identity(x)).to_dict()
        assert data["set"]["names"] == ["a", "b"]
        assert data["hom"][0][0] == "1"

    def test_single_set(self, luk3):
        dq = diagonal_quantaloid(luk3)
        s = single_set(dq, value(luk3, "1/2"))
        assert s.names == ("*",)
