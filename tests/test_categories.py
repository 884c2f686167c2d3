import itertools
import random

import pytest

from enritch.categories import (
    QCategory,
    QFunctor,
    cograph,
    enumerate_presheaves,
    graph,
    is_fully_faithful,
    is_symmetric,
    validate_category,
    validate_functor,
)
from enritch.diagonals import diagonal_quantaloid
from enritch.errors import PreconditionError, ShapeMismatchError, UnsupportedQuantaleError
from enritch.hull import (
    all_functors,
    enumerate_symmetric_categories,
    full_subcategory,
    inclusion_functor,
    one_point_extensions,
    tight_span,
)
from enritch.parmet import to_category
from enritch.rationals import ExtRat
from enritch.quantale import LAWVERE
from enritch.relations import QRelation, TypedSet, rel_compose, rel_residual

from conftest import make_category, random_partial_metric, value
from oracles import (
    Presheaf,
    check_adjunction,
    copresheaf_values,
    functor_compose,
    isomorphic,
    one_object_category,
    presheaf_hom,
    presheaf_relation,
    presheaves,
    reference_validate_functor,
    rel_involve,
    symmetrize,
    underlying_order,
    yoneda,
    yoneda_lemma_holds,
)
from test_relations import random_relation


class TestListInputs:
    def test_lists_build_the_same_values_as_tuples(self, boolean):
        dq = diagonal_quantaloid(boolean)
        carrier = TypedSet(dq, ("a", "b"), (1, 1))
        c = QCategory(carrier, QRelation(carrier, carrier, ((1, 0), (0, 1))))
        listed_carrier = TypedSet(dq, ["a", "b"], [1, 1])
        listed = QCategory(
            listed_carrier, QRelation(listed_carrier, listed_carrier, [[1, 0], [0, 1]])
        )
        assert listed == c and hash(listed) == hash(c)
        assert is_symmetric(listed)
        assert tight_span(listed).category == tight_span(c).category
        assert list(one_point_extensions(listed)) == list(one_point_extensions(c))
        f = QFunctor(listed, c, [0, 1])
        assert f == QFunctor(c, c, (0, 1)) and hash(f) == hash(QFunctor(c, c, (0, 1)))
        mu = Presheaf(listed, 1, [1, 0])
        assert mu == yoneda(c, "a") and hash(mu) == hash(yoneda(c, "a"))

    def test_tuple_inputs_are_kept_without_a_copy(self, boolean):
        dq = diagonal_quantaloid(boolean)
        names, types, rows = ("a", "b"), (1, 1), ((1, 0), (0, 1))
        carrier = TypedSet(dq, names, types)
        hom = QRelation(carrier, carrier, rows)
        assert carrier.names is names and carrier.types is types
        assert hom.entries is rows


class TestValidation:
    def test_one_point_category_valid(self, luk3):
        dq = diagonal_quantaloid(luk3)
        c = one_object_category(dq, value(luk3, "1/2"))
        assert validate_category(c).valid

    def test_triangle_violation_detected(self):
        c = make_category(
            LAWVERE,
            ["x", "y", "z"],
            ["0", "0", "0"],
            [["0", "1", "9"], ["1", "0", "1"], ["9", "1", "0"]],
        )
        report = validate_category(c)
        assert report.reflexive
        assert not report.transitive
        assert report.transitive_witness == ("x", "y", "z")

    def test_boolean_preorders_are_valid(self, boolean):
        # any reflexive transitive matrix over type-1 points validates
        c = make_category(
            boolean, ["a", "b"], ["1", "1"], [["1", "1"], ["0", "1"]]
        )
        assert validate_category(c).valid

    def test_reflexivity_forced_by_integrality(self, boolean):
        c = make_category(boolean, ["a"], ["1"], [["0"]])
        report = validate_category(c)
        assert not report.reflexive
        assert report.reflexive_witness == "a"


class TestSymmetry:
    def test_symmetrize_takes_numeric_max_over_extended_rationals(self):
        c = make_category(
            LAWVERE, ["x", "y"], ["0", "0"], [["0", "2"], ["5", "0"]]
        )
        s = symmetrize(c)
        assert str(s.hom.entries[0][1]) == "5"
        assert str(s.hom.entries[1][0]) == "5"

    def test_symmetrize_fixes_symmetric_input(self, luk3):
        c = make_category(
            luk3, ["a", "b"], ["1", "1"], [["1", "1/2"], ["1/2", "1"]]
        )
        assert is_symmetric(c)
        assert symmetrize(c) == c

    def test_symmetrize_idempotent(self, luk3):
        c = make_category(
            luk3, ["a", "b"], ["1", "1"], [["1", "1/2"], ["0", "1"]]
        )
        once = symmetrize(c)
        assert is_symmetric(once)
        assert symmetrize(once) == once

    def test_functor_into_symmetrization(self, boolean, luk3):
        # a map out of a symmetric category is a functor into Y
        # exactly when it is one into the symmetrization of Y
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            sym_cats = list(enumerate_symmetric_categories(dq, 2))
            all_cats = []
            for names, types, rows in _all_small_categories(quantale, 2):
                c = make_category(quantale, names, types, rows)
                if validate_category(c).valid:
                    all_cats.append(c)
            for x_cat in sym_cats[:6]:
                for y_cat in all_cats[:12]:
                    y_sym = symmetrize(y_cat)
                    maps = itertools.product(range(len(y_cat)), repeat=len(x_cat))
                    for assignment in maps:
                        f = validate_functor(x_cat, y_cat, assignment)
                        g = validate_functor(x_cat, y_sym, assignment)
                        assert f.valid == g.valid

    @pytest.mark.parametrize("fixture", ["boolean", "luk3", "diamond_swap"])
    def test_entrywise_check_matches_the_involute_transpose(self, request, fixture):
        # every 2-point matrix of diagonals, symmetric or not; diamond_swap's
        # involution is not the identity, so a transpose without it fails
        quantale = request.getfixturevalue(fixture)
        verdicts = []
        for names, types, rows in _all_small_categories(quantale, 2):
            c = make_category(quantale, names, types, rows)
            verdicts.append(is_symmetric(c))
            assert verdicts[-1] == (c.hom == rel_involve(c.hom)), c.to_dict()
        assert set(verdicts) == {True, False}

    def test_entrywise_check_on_partial_metrics(self):
        rng = random.Random(404)
        for _ in range(20):
            c = to_category(random_partial_metric(rng, rng.randint(0, 5)))
            assert is_symmetric(c) and c.hom == rel_involve(c.hom)
            if len(c) > 1:
                rows = [list(row) for row in c.hom.entries]
                rows[0][1] = rows[0][1] + ExtRat(1)
                bent = make_category(LAWVERE, c.names, c.objects.types, rows)
                assert not is_symmetric(bent) and bent.hom != rel_involve(bent.hom)


def _all_small_categories(quantale, max_n):
    """Raw candidate tables (not necessarily symmetric), for cross checks."""
    dq = diagonal_quantaloid(quantale)
    for n in range(max_n + 1):
        names = [f"o{i}" for i in range(n)]
        for types in itertools.product(dq.objects(), repeat=n):
            cells = [(i, j) for i in range(n) for j in range(n) if i != j]
            pools = [dq.hom(types[i], types[j]) for i, j in cells]
            for choice in itertools.product(*pools):
                rows = [[None] * n for _ in range(n)]
                for i in range(n):
                    rows[i][i] = dq.identity(types[i])
                for (i, j), u in zip(cells, choice):
                    rows[i][j] = u
                yield (
                    names,
                    [quantale.elements[t] for t in types],
                    [[quantale.elements[u] for u in row] for row in rows],
                )


class TestUnderlyingOrder:
    def test_classical_metric_is_discrete_and_separated(self):
        c = make_category(
            LAWVERE, ["x", "y"], ["0", "0"], [["0", "3"], ["3", "0"]]
        )
        order = underlying_order(c)
        assert order.separated
        assert ("x", "y") not in order.pairs
        assert order.iso_classes == (("x",), ("y",))

    def test_indiscrete_boolean_pair_not_separated(self, boolean):
        c = make_category(boolean, ["a", "b"], ["1", "1"], [["1", "1"], ["1", "1"]])
        order = underlying_order(c)
        assert not order.separated
        assert order.iso_classes == (("a", "b"),)

    def test_unknown_object_is_a_shape_mismatch(self, boolean):
        c = make_category(boolean, ["x0", "x1"], ["1", "1"], [["1", "1"], ["1", "1"]])
        order = underlying_order(c)
        assert isomorphic(order, "x0", "x1") and order.class_index("x1") == 0
        with pytest.raises(ShapeMismatchError, match="unknown object 'nope'"):
            isomorphic(order, "x0", "nope")
        with pytest.raises(ShapeMismatchError):
            order.class_index("nope")

    def test_iso_iff_equal_rows_iff_equal_columns(self, boolean, luk3):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 3):
                order = underlying_order(c)
                n = len(c)
                for i in range(n):
                    for j in range(n):
                        iso = isomorphic(order, c.names[i], c.names[j])
                        rows_equal = c.hom.entries[i] == c.hom.entries[j]
                        cols_equal = all(
                            c.hom.entries[k][i] == c.hom.entries[k][j]
                            for k in range(n)
                        ) and c.objects.types[i] == c.objects.types[j]
                        rows_equal = rows_equal and (
                            c.objects.types[i] == c.objects.types[j]
                        )
                        assert iso == rows_equal == cols_equal


class TestFunctors:
    def test_identity_fully_faithful(self, luk3):
        c = make_category(
            luk3, ["a", "b"], ["1", "1"], [["1", "1/2"], ["1/2", "1"]]
        )
        f = QFunctor(c, c, (0, 1))
        assert validate_functor(c, c, (0, 1)).valid
        assert is_fully_faithful(f)

    def test_collapsing_map_is_functor_but_not_fully_faithful(self):
        c = make_category(
            LAWVERE, ["x", "y"], ["0", "0"], [["0", "3"], ["3", "0"]]
        )
        p = make_category(LAWVERE, ["p"], ["0"], [["0"]])
        f = QFunctor(c, p, (0, 0))
        assert validate_functor(c, p, (0, 0)).valid
        assert not is_fully_faithful(f)

    def test_type_violation_reported(self, luk3):
        c = make_category(luk3, ["a"], ["1/2"], [["1/2"]])
        d = make_category(luk3, ["b"], ["1"], [["1"]])
        report = validate_functor(c, d, (0,))
        assert not report.type_preserving
        assert report.type_witness == "a"
        with pytest.raises(PreconditionError, match="'type_witness': 'a'"):
            QFunctor(c, d, (0,))

    @pytest.mark.parametrize(
        "fixture", ["boolean", "luk3", "luk5", "nilmin5", "diamond", "diamond_swap"]
    )
    def test_construction_refuses_exactly_the_non_functors(self, request, fixture):
        # every assignment between two categories at bound 2, types broken
        # or not: QFunctor refuses exactly what the old check reported, with
        # its report, and the graphs of what it builds are the validated ones
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        cats = list(enumerate_symmetric_categories(dq, 2))
        seen = {"functor": 0, "type": 0, "hom": 0}
        for x_cat in cats:
            for y_cat in cats:
                for assignment in itertools.product(range(len(y_cat)), repeat=len(x_cat)):
                    report = reference_validate_functor(x_cat, y_cat, assignment)
                    if report.valid:
                        f = QFunctor(x_cat, y_cat, assignment)
                        assert validate_functor(x_cat, y_cat, assignment) == report
                        assert_trusted(graph(f))
                        assert_trusted(cograph(f))
                        seen["functor"] += 1
                        continue
                    with pytest.raises(PreconditionError) as refused:
                        QFunctor(x_cat, y_cat, assignment)
                    assert str(refused.value) == f"not a functor: {report.to_dict()}"
                    seen["hom" if report.type_preserving else "type"] += 1
        # functors, type breaks and hom breaks all occur
        assert all(seen.values()), seen

    def test_inclusion_fully_faithful(self, luk3):
        big = make_category(
            luk3,
            ["a", "b", "c"],
            ["1", "1", "1/2"],
            [["1", "1/2", "1/2"], ["1/2", "1", "0"], ["1/2", "0", "1/2"]],
        )
        from enritch.hull import full_subcategory, inclusion_functor

        sub = full_subcategory(big, ["a", "c"])
        assert is_fully_faithful(inclusion_functor(sub, big))

    def test_categories_over_different_quantaloids_refused(self, boolean, luk3):
        # payload 1 is "1" in boolean but "1/2" in lukasiewicz3
        x = make_category(boolean, ["p"], ["1"], [["1"]])
        y = make_category(luk3, ["p", "q"], ["1", "1"], [["1", "1/2"], ["1/2", "1"]])
        with pytest.raises(ShapeMismatchError, match="different quantaloids"):
            QFunctor(x, y, (0,))

    def test_unknown_object_name_is_a_shape_mismatch(self, luk3):
        from enritch.hull import full_subcategory

        c = make_category(luk3, ["a", "b"], ["1", "1"], [["1", "1/2"], ["1/2", "1"]])
        lookups = [
            lambda: c.objects.index("z"),
            lambda: full_subcategory(c, ["a", "z"]),
            lambda: yoneda(c, "z"),
        ]
        for lookup in lookups:
            with pytest.raises(ShapeMismatchError, match="unknown object 'z'"):
                lookup()


class TestGraphs:
    def test_identity_functor_graph_is_hom(self, luk3):
        c = make_category(
            luk3, ["a", "b"], ["1", "1"], [["1", "1/2"], ["1/2", "1"]]
        )
        f = QFunctor(c, c, (0, 1))
        assert graph(f) == c.hom
        assert cograph(f) == c.hom

    def test_involution_swaps_graph_and_cograph(self, boolean, luk3):
        # for symmetric domain and codomain
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            cats = list(enumerate_symmetric_categories(dq, 2))
            for x_cat in cats[:8]:
                for y_cat in cats[:8]:
                    for f in all_functors(x_cat, y_cat):
                        assert rel_involve(graph(f)) == cograph(f)
                        assert rel_involve(cograph(f)) == graph(f)

    def test_adjunction_holds_for_every_functor(self, luk3):
        dq = diagonal_quantaloid(luk3)
        cats = list(enumerate_symmetric_categories(dq, 2))
        rng = random.Random(2)
        for _ in range(60):
            x_cat, y_cat = rng.choice(cats), rng.choice(cats)
            fs = list(all_functors(x_cat, y_cat))
            if not fs:
                continue
            assert check_adjunction(rng.choice(fs))

    def test_graph_of_composite(self, boolean):
        dq = diagonal_quantaloid(boolean)
        cats = list(enumerate_symmetric_categories(dq, 2))
        rng = random.Random(14)
        for _ in range(60):
            x_cat, y_cat, z_cat = (rng.choice(cats) for _ in range(3))
            fs = list(all_functors(x_cat, y_cat))
            gs = list(all_functors(y_cat, z_cat))
            if not fs or not gs:
                continue
            f, g = rng.choice(fs), rng.choice(gs)
            gf = functor_compose(g, f)
            assert graph(gf) == rel_compose(graph(g), graph(f))
            assert cograph(gf) == rel_compose(cograph(f), cograph(g))

    def test_hom_reindexing_through_graphs(self, luk3):
        # phi(f-, g-) computed directly equals cograph(g) . phi . graph(f)
        dq = diagonal_quantaloid(luk3)
        cats = list(enumerate_symmetric_categories(dq, 2))
        rng = random.Random(21)
        checked = 0
        for _ in range(80):
            x_cat, y_cat = rng.choice(cats), rng.choice(cats)
            fs = list(all_functors(x_cat, y_cat))
            if not fs:
                continue
            f, g = rng.choice(fs), rng.choice(fs)
            phi = y_cat.hom  # the identity distributor on the codomain
            lhs_entries = tuple(
                tuple(phi.entries[a][b] for b in g.assignment) for a in f.assignment
            )
            rhs = rel_compose(cograph(g), rel_compose(phi, graph(f)))
            assert lhs_entries == rhs.entries
            checked += 1
        assert checked > 20

    def test_residual_slides_past_graphs(self, boolean):
        # (psi <srd> xi) . graph(f) = psi <srd> (xi . graph(f)) for distributors
        dq = diagonal_quantaloid(boolean)
        cats = list(enumerate_symmetric_categories(dq, 2))
        rng = random.Random(33)
        checked = 0
        for _ in range(120):
            x_cat, y_cat, z_cat, w_cat = (rng.choice(cats) for _ in range(4))
            fs = list(all_functors(x_cat, y_cat))
            if not fs:
                continue
            f = rng.choice(fs)
            gr = graph(f)
            # build distributors by closing random relations with the homs
            theta = random_relation(rng, y_cat.objects, z_cat.objects)
            psi_raw = random_relation(rng, w_cat.objects, z_cat.objects)
            xi = rel_compose(z_cat.hom, rel_compose(theta, y_cat.hom))
            psi = rel_compose(z_cat.hom, rel_compose(psi_raw, w_cat.hom))
            lhs = rel_compose(rel_residual("right", xi, psi), gr)
            rhs = rel_residual("right", rel_compose(xi, gr), psi)
            assert lhs == rhs
            # and the mirror image: cograph(f) . (psi <swl> phi) = (cograph(f) . psi) <swl> phi
            co = cograph(f)
            phi2 = rel_compose(w_cat.hom, rel_compose(
                random_relation(rng, z_cat.objects, w_cat.objects), z_cat.hom
            ))
            psi2 = rel_compose(y_cat.hom, rel_compose(
                random_relation(rng, z_cat.objects, y_cat.objects), z_cat.hom
            ))
            lhs2 = rel_compose(co, rel_residual("left", psi2, phi2))
            rhs2 = rel_residual("left", rel_compose(co, psi2), phi2)
            assert lhs2 == rhs2
            checked += 1
        assert checked > 30


def assert_trusted(relation: QRelation) -> None:
    """The relation equals the one the validating constructor builds from
    its parts, and its entries are tuples of tuples."""
    assert relation == QRelation(relation.source, relation.target, relation.entries)
    assert type(relation.entries) is tuple and all(type(row) is tuple for row in relation.entries)


def assert_trusted_functor(f: QFunctor) -> None:
    """The graph, the cograph and the relation ops on them equal the values
    the validating constructor builds."""
    gr, co = graph(f), cograph(f)
    for relation in (gr, co):
        assert_trusted(relation)
    for relation in (
        rel_compose(co, gr),
        rel_compose(gr, co),
        rel_residual("left", gr, gr),
        rel_residual("right", co, co),
        rel_residual("left", f.codomain.hom, co),
        rel_residual("right", f.codomain.hom, f.codomain.hom),
    ):
        assert_trusted(relation)


class TestTrustedConstruction:
    @pytest.mark.parametrize(
        "fixture", ["boolean", "luk3", "luk5", "nilmin5", "diamond", "diamond_swap"]
    )
    def test_trusted_values_equal_the_validated_ones(self, request, fixture):
        # every extension (each category past the empty one is one), span
        # hom, graph, cograph and relation op output at bound 2
        dq = diagonal_quantaloid(request.getfixturevalue(fixture))
        functors = 0
        for c in enumerate_symmetric_categories(dq, 2):
            assert_trusted(c.hom)
            for ext in one_point_extensions(c):
                assert_trusted(ext.hom)
            span = tight_span(c)
            assert_trusted(span.category.hom)
            for f in [span.yoneda_embedding(), *all_functors(c, c)]:
                assert_trusted_functor(f)
                functors += 1
        assert functors > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_trusted_values_on_partial_metrics(self, seed):
        rng = random.Random(f"trusted-{seed}")
        c = to_category(random_partial_metric(rng, rng.randint(1, 6), allow_inf=seed % 2 == 1))
        names = rng.sample(c.names, rng.randint(0, len(c)))
        for f in (QFunctor(c, c, tuple(range(len(c)))), inclusion_functor(full_subcategory(c, names), c)):
            assert_trusted_functor(f)

    def test_the_public_constructors_refuse(self, boolean):
        dq = diagonal_quantaloid(boolean)
        zero, one = value(boolean, "0"), value(boolean, "1")
        low, high = TypedSet(dq, ("a",), (zero,)), TypedSet(dq, ("b",), (one,))
        with pytest.raises(PreconditionError, match="is not a diagonal"):
            QRelation(low, high, ((one,),))
        # a one-point assignment of type 0 into a point of type 1 is not a
        # functor, so no graph can hold hom(b, b) = 1 at type 0
        x_cat = make_category(boolean, ["a"], ["0"], [["0"]])
        y_cat = make_category(boolean, ["b"], ["1"], [["1"]])
        assert not reference_validate_functor(x_cat, y_cat, (0,)).valid
        with pytest.raises(PreconditionError, match="not a functor"):
            QFunctor(x_cat, y_cat, (0,))


class TestPresheaves:
    def test_empty_category_has_one_presheaf_per_type(self, boolean):
        c = make_category(boolean, [], [], [])
        sheaves = list(enumerate_presheaves(c))
        assert sheaves == [(value(boolean, "0"), ()), (value(boolean, "1"), ())]
        assert sorted(boolean.elements[q] for q, _ in sheaves) == ["0", "1"]

    def test_one_point_type_one_presheaves(self, boolean):
        dq = diagonal_quantaloid(boolean)
        c = one_object_category(dq, value(boolean, "1"))
        values = [
            column[0]
            for q, column in enumerate_presheaves(c)
            if q == value(boolean, "1")
        ]
        assert values == [value(boolean, "0"), value(boolean, "1")]

    def test_count_invariant_under_renaming(self, luk3):
        rows = [["1", "1/2"], ["1/2", "1"]]
        c1 = make_category(luk3, ["a", "b"], ["1", "1"], rows)
        c2 = make_category(luk3, ["left", "right"], ["1", "1"], rows)
        assert list(enumerate_presheaves(c1)) == list(enumerate_presheaves(c2))

    def test_distributor_law_enforced(self, boolean):
        c = make_category(boolean, ["a", "b"], ["1", "1"], [["1", "1"], ["1", "1"]])
        column = tuple(value(boolean, v) for v in ("0", "1"))
        assert (value(boolean, "1"), column) not in set(enumerate_presheaves(c))
        with pytest.raises(PreconditionError):
            Presheaf(c, value(boolean, "1"), column)

    def test_lawvere_enumeration_unsupported(self):
        c = make_category(LAWVERE, ["x"], ["0"], [["0"]])
        with pytest.raises(UnsupportedQuantaleError):
            next(enumerate_presheaves(c))


class TestCopresheaves:
    def test_involuted_presheaves_are_copresheaves(self, boolean, luk3):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                for mu in presheaves(c):
                    values = copresheaf_values(mu)  # checks the law itself
                    assert values == tuple(dq.involve(u) for u in mu.values)

    def test_non_symmetric_base_is_a_precondition_error(self):
        c = make_category(LAWVERE, ["a", "b"], ["0", "0"], [["0", "1"], ["5", "0"]])
        assert validate_category(c).valid and not is_symmetric(c)
        with pytest.raises(PreconditionError, match="symmetric base"):
            copresheaf_values(yoneda(c, "a"))


class TestYoneda:
    def test_yoneda_lemma_exhaustive(self, boolean, luk3):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                for mu in presheaves(c):
                    assert yoneda_lemma_holds(c, mu)

    def test_yoneda_is_isometric_onto_its_image(self, boolean, luk3):
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 3):
                for i, x in enumerate(c.names):
                    for j, y in enumerate(c.names):
                        assert (
                            presheaf_hom(yoneda(c, x), yoneda(c, y))
                            == c.hom.entries[i][j]
                        )

    def test_yoneda_of_point_evaluates_to_identity(self, luk3):
        c = make_category(
            luk3, ["a", "b"], ["1", "1/2"], [["1", "1/2"], ["1/2", "1/2"]]
        )
        mu = yoneda(c, "a")
        assert presheaf_hom(yoneda(c, "a"), mu) == value(luk3, "1")

    def test_presheaf_hom_matches_relation_residual(self, boolean, luk3):
        # the presheaf-category hom is the left residual of the columns
        for quantale in (boolean, luk3):
            dq = diagonal_quantaloid(quantale)
            for c in enumerate_symmetric_categories(dq, 2):
                sheaves = presheaves(c)
                for mu in sheaves:
                    for nu in sheaves:
                        via_relations = rel_residual(
                            "left", presheaf_relation(nu, "n"), presheaf_relation(mu, "m")
                        )
                        assert via_relations.entries[0][0] == presheaf_hom(mu, nu)
