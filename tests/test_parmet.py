import itertools
import random
from fractions import Fraction

import pytest

from enritch import parmet
from enritch.categories import validate_category, is_symmetric
from enritch.errors import EnritchError, InvariantError, PreconditionError, SchemaError
from enritch.hull import column_admissible, is_tight_column
from enritch.parmet import (
    ParMetReport,
    ParMetSpace,
    RadiusFunction,
    ambient_violation,
    dense_isometry_check,
    hyperconvex_family_check,
    sigma,
    tight_member,
    tight_violation,
    tighten_sweep,
    to_category,
    validate_partial_metric,
)
from enritch.rationals import INF, ZERO, ExtRat

import oracles
from conftest import random_partial_metric
from oracles import (
    Presheaf,
    classical_sigma_check,
    classical_tight_check,
    presheaf_hom,
    sample_ambient,
    to_fraction,
)


def er(x):
    return ExtRat(Fraction(x)) if not isinstance(x, str) else ExtRat.parse(x)


def space(points, rows):
    return ParMetSpace(
        tuple(points), tuple(tuple(er(c) for c in row) for row in rows)
    )


def rf(r, values):
    return RadiusFunction(er(r), tuple(er(v) for v in values))


TWO_POINT = space(["a", "b"], [[0, 4], [4, 0]])
PARTIAL = space(["a", "b"], [[1, 3], [3, 2]])
MIDPOINT = space(["a", "b", "m"], [[0, 4, 2], [4, 0, 2], [2, 2, 0]])


class TestAxioms:
    def test_partial_example_valid(self):
        report = validate_partial_metric(PARTIAL)
        assert report.valid

    def test_classical_metric_valid(self):
        assert validate_partial_metric(TWO_POINT).valid

    def test_self_bound_violation_with_witness(self):
        bad = space(["a", "b"], [[2, 1], [1, 0]])
        report = validate_partial_metric(bad)
        assert not report.valid
        assert report.self_bound_witness == ("a", "b")

    def test_triangle_violation_with_witness(self):
        bad = space(
            ["x", "y", "z"],
            [[0, 1, 9], [1, 0, 1], [9, 1, 0]],
        )
        report = validate_partial_metric(bad)
        assert not report.triangle
        assert report.triangle_witness == ("x", "y", "z")

    def test_infinite_and_unseparated_spaces_are_valid(self):
        infinite = space(["a", "b"], [[0, "inf"], ["inf", 0]])
        assert validate_partial_metric(infinite).valid
        unseparated = space(["a", "b"], [[1, 1], [1, 1]])
        assert validate_partial_metric(unseparated).valid

    def test_generator_output_always_valid(self):
        rng = random.Random(100)
        for _ in range(25):
            space_ = random_partial_metric(rng, rng.randint(0, 5), allow_inf=True)
            assert validate_partial_metric(space_).valid


class TestBallFamilies:
    def test_two_point_family_without_witness(self):
        result = hyperconvex_family_check(
            TWO_POINT, ZERO, [("a", er(2)), ("b", er(2))]
        )
        assert result.admissible
        assert result.witness is None

    def test_same_family_finds_midpoint(self):
        result = hyperconvex_family_check(
            MIDPOINT, ZERO, [("a", er(2)), ("b", er(2))]
        )
        assert result.witness == "m"

    def test_self_ball(self):
        result = hyperconvex_family_check(
            PARTIAL, er(1), [("a", er(1))]
        )
        assert result.witness == "a"

    def test_inadmissible_pair_reported(self):
        result = hyperconvex_family_check(
            TWO_POINT, ZERO, [("a", er(1)), ("b", er(2))]
        )
        assert not result.admissible
        assert result.violation == ("pair", "a", "b")

    def test_radius_below_self_distance_reported(self):
        result = hyperconvex_family_check(PARTIAL, ZERO, [("b", er(1))])
        assert not result.admissible
        assert result.violation == ("radius_below_self_distance", "b")

    def test_strict_flag_constrains_witness_type(self):
        # base radius 1: point a has self-distance 1, so a strict witness
        # exists for its self ball; with base radius 0 nothing qualifies
        lax = hyperconvex_family_check(PARTIAL, er(1), [("a", er(1))], strict=False)
        strict = hyperconvex_family_check(PARTIAL, er(1), [("a", er(1))], strict=True)
        assert lax.witness == strict.witness == "a"
        wide = hyperconvex_family_check(
            PARTIAL, ZERO, [("a", er(3)), ("b", er(3))], strict=True
        )
        assert wide.admissible and wide.witness is None
        assert (
            hyperconvex_family_check(
                PARTIAL, ZERO, [("a", er(3)), ("b", er(3))], strict=False
            ).witness
            == "a"
        )


def grid(space_, mu, denominators=(1, 2, 4)):
    """All grid functions pointwise numerically at most mu, same base radius."""
    axes = []
    for i in range(len(space_)):
        top = mu.values[i]
        vals = [INF] if top == INF else []
        if top != INF:
            limit = to_fraction(top)
            vals = sorted(
                {
                    Fraction(k, d)
                    for d in denominators
                    for k in range(int(limit * d) + 1)
                    if Fraction(k, d) <= limit
                }
            )
        axes.append([ExtRat(v) if not isinstance(v, ExtRat) else v for v in vals])
    for combo in itertools.product(*axes):
        yield RadiusFunction(mu.r, tuple(combo))


def _ambient(space_, nu):
    try:
        return ambient_violation(space_, nu) is None
    except PreconditionError:  # ill-typed grid point: certainly not ambient
        return False


def grid_maximality_oracle(space_, mu):
    """mu must be ambient and dominated by no other grid ambient function."""
    if not _ambient(space_, mu):
        return False
    for nu in grid(space_, mu):
        if nu.values == mu.values:
            continue
        if all(nu.values[i] <= mu.values[i] for i in range(len(space_))) and _ambient(
            space_, nu
        ):
            return False
    return True


class TestTightMembership:
    def test_two_point_examples(self):
        assert tight_member(TWO_POINT, rf(0, [1, 3]))
        assert not tight_member(TWO_POINT, rf(0, [2, 3]))
        assert tight_violation(TWO_POINT, rf(0, [2, 3])) == "a"

    def test_yoneda_columns_tight(self):
        for space_ in (TWO_POINT, PARTIAL, MIDPOINT):
            for i, x in enumerate(space_.points):
                mu = RadiusFunction(
                    space_.alpha[i][i],
                    tuple(space_.alpha[j][i] for j in range(len(space_))),
                )
                assert tight_member(space_, mu)

    def test_partial_example_against_grid_oracle(self):
        mu = rf(0, [1, 2])
        assert tight_member(PARTIAL, mu)
        assert grid_maximality_oracle(PARTIAL, mu)

    def test_grid_oracle_agrees_with_membership(self):
        # on denominator-(1,2,4) data the maximality oracle is exact
        small = space(
            ["a", "b", "c"], [[0, "3/2", 1], ["3/2", 0, 1], [1, 1, "1/2"]]
        )
        assert validate_partial_metric(small).valid
        for space_, cap in ((TWO_POINT, 5), (PARTIAL, 4), (small, 3)):
            start = RadiusFunction(ZERO, tuple(er(cap) for _ in space_.points))
            for nu in grid(space_, start, denominators=(1, 2)):
                if not _ambient(space_, nu):
                    continue
                assert tight_member(space_, nu) == grid_maximality_oracle(
                    space_, nu
                ), (space_, nu.values)

    def test_ill_typed_rejected(self):
        with pytest.raises(PreconditionError):
            tight_member(PARTIAL, rf(0, [0, 2]))


class TestTightenSweep:
    def test_two_point_example(self):
        out = tighten_sweep(TWO_POINT, rf(0, [3, 3]))
        assert out.values == (er(1), er(3))

    def test_order_dependence_documented(self):
        flipped = space(["b", "a"], [[0, 4], [4, 0]])
        out = tighten_sweep(flipped, rf(0, [3, 3]))
        assert out.values == (er(1), er(3))  # first-listed point drops first

    def test_tight_input_unchanged(self):
        mu = rf(0, [1, 3])
        assert tighten_sweep(TWO_POINT, mu).values == mu.values

    def test_non_ambient_rejected(self):
        with pytest.raises(PreconditionError):
            tighten_sweep(TWO_POINT, rf(0, [1, 1]))

    def test_single_sweep_suffices_on_random_spaces(self):
        rng = random.Random(9)
        for trial in range(40):
            space_ = random_partial_metric(rng, rng.randint(1, 6))
            r = ExtRat(Fraction(rng.randint(0, 4), rng.choice((1, 2, 4))))
            mu = sample_ambient(space_, r, seed=trial)
            out = tighten_sweep(space_, mu)
            assert tight_member(space_, out)
            assert all(o <= m for o, m in zip(out.values, mu.values))
            # the omitted self-term is dominated, as documented
            for z in range(len(space_)):
                self_term = (space_.alpha[z][z] + r).monus(out.values[z])
                assert self_term <= max(r, space_.alpha[z][z])

    def test_infinite_entries_handled(self):
        disconnected = space(
            ["a", "b"], [[0, "inf"], ["inf", 0]]
        )
        mu = RadiusFunction(ZERO, (INF, er(5)))
        assert ambient_violation(disconnected, mu) is None
        out = tighten_sweep(disconnected, mu)
        assert tight_member(disconnected, out)

    def test_infinite_base_radius(self):
        everything_far = RadiusFunction(INF, (INF, INF))
        assert ambient_violation(TWO_POINT, everything_far) is None
        assert tight_member(TWO_POINT, everything_far)
        assert tighten_sweep(TWO_POINT, everything_far).values == (INF, INF)
        assert sigma(TWO_POINT, everything_far, everything_far) == INF


class TestSigma:
    def test_yoneda_isometry(self):
        ya = rf(0, [0, 4])
        yb = rf(0, [4, 0])
        assert sigma(TWO_POINT, ya, yb) == er(4)

    def test_self_distance_is_type(self):
        mu = rf(0, [1, 3])
        assert sigma(TWO_POINT, mu, mu) == ZERO
        i = PARTIAL.points.index("a")
        ya = RadiusFunction(
            PARTIAL.alpha[i][i], tuple(PARTIAL.alpha[j][i] for j in range(2))
        )
        assert sigma(PARTIAL, ya, ya) == er(1)

    def test_cross_example(self):
        assert sigma(TWO_POINT, rf(0, [1, 3]), rf(0, [3, 1])) == er(2)

    def test_non_tight_rejected(self):
        with pytest.raises(PreconditionError):
            sigma(TWO_POINT, rf(0, [3, 3]), rf(0, [1, 3]))


class TestDensity:
    def test_identity_dense(self):
        assert dense_isometry_check(
            {"a": "a", "b": "b"}, TWO_POINT, TWO_POINT
        )

    def test_midpoint_embedding_dense(self):
        assert dense_isometry_check(
            {"a": "a", "b": "b"}, TWO_POINT, MIDPOINT
        )

    def test_discrete_extension_not_dense(self):
        one = space(["a"], [[0]])
        pair = space(["a", "b"], [[0, 5], [5, 0]])
        assert not dense_isometry_check({"a": "a"}, one, pair)

    def test_non_isometric_rejected(self):
        shrunk = space(["a", "b"], [[0, 3], [3, 0]])
        with pytest.raises(PreconditionError):
            dense_isometry_check({"a": "a", "b": "b"}, TWO_POINT, shrunk)

    def test_missing_point_rejected(self):
        with pytest.raises(SchemaError):
            dense_isometry_check({"a": "a"}, TWO_POINT, MIDPOINT)

    def test_unknown_point_rejected(self):
        with pytest.raises(SchemaError, match="names unknown points"):
            dense_isometry_check({"a": "a", "b": "b", "zzz": "m"}, TWO_POINT, MIDPOINT)


class TestClassicalReduction:
    def test_tight_pair_passes_both_formulations(self):
        assert classical_tight_check(TWO_POINT, rf(0, [1, 3]))

    def test_zero_function_fails(self):
        assert not classical_tight_check(TWO_POINT, rf(0, [0, 0]))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(PreconditionError):
            classical_tight_check(PARTIAL, rf(0, [1, 2]))
        with pytest.raises(PreconditionError):
            classical_tight_check(TWO_POINT, rf(1, [1, 3]))

    def test_swept_functions_satisfy_classical_equation(self):
        rng = random.Random(77)
        for trial in range(30):
            n = rng.randint(1, 5)
            base = random_partial_metric(rng, n)
            # zero out the diagonal to get a classical (pseudo)metric
            rows = [
                [
                    ZERO
                    if i == j
                    else base.alpha[i][j].monus(
                        ExtRat(
                            (to_fraction(base.alpha[i][i]) + to_fraction(base.alpha[j][j])) / 2
                        )
                    )
                    for j in range(n)
                ]
                for i in range(n)
            ]
            classical = ParMetSpace(base.points, tuple(tuple(r) for r in rows))
            assert validate_partial_metric(classical).valid
            mu = sample_ambient(classical, ZERO, seed=trial)
            out = tighten_sweep(classical, mu)
            assert classical_tight_check(classical, out)

    def test_sigma_agreement_and_symmetry(self):
        mu, lam = rf(0, [1, 3]), rf(0, [3, 1])
        assert classical_sigma_check(TWO_POINT, mu, lam)
        assert classical_sigma_check(TWO_POINT, mu, mu)

    def test_two_point_tight_set_is_the_segment(self):
        # tight functions on d(a, b) = 4 are exactly the pairs summing to 4
        quarters = [Fraction(k, 4) for k in range(0, 17)]
        for t in quarters:
            for s in quarters:
                mu = RadiusFunction(ZERO, (ExtRat(t), ExtRat(s)))
                assert tight_member(TWO_POINT, mu) == (t + s == 4)


class TestSampler:
    def test_reproducible(self):
        a = sample_ambient(PARTIAL, ZERO, seed=5)
        b = sample_ambient(PARTIAL, ZERO, seed=5)
        assert a == b
        assert a != sample_ambient(PARTIAL, ZERO, seed=6)

    def test_always_ambient(self):
        rng = random.Random(13)
        for trial in range(30):
            space_ = random_partial_metric(rng, rng.randint(0, 5), allow_inf=True)
            r = ExtRat(Fraction(rng.randint(0, 3)))
            mu = sample_ambient(space_, r, seed=trial)
            assert ambient_violation(space_, mu) is None


class TestBridgeToGenericCalculus:
    def test_axioms_match_category_laws(self):
        rng = random.Random(3)
        for _ in range(20):
            space_ = random_partial_metric(rng, rng.randint(0, 4))
            cat = to_category(space_)
            assert validate_category(cat).valid
            assert is_symmetric(cat)

    def test_axiom_failures_mirror_category_failures(self):
        bad = space(["x", "y", "z"], [[0, 1, 9], [1, 0, 1], [9, 1, 0]])
        assert not validate_partial_metric(bad).triangle
        assert not validate_category(to_category(bad)).transitive

    def test_tightness_agrees_with_generic_route(self):
        rng = random.Random(31)
        for trial in range(25):
            space_ = random_partial_metric(rng, rng.randint(1, 4))
            cat = to_category(space_)
            mu = sample_ambient(space_, ZERO, seed=trial)
            out = tighten_sweep(space_, mu)
            assert column_admissible(cat, mu.r, mu.values) == (
                ambient_violation(space_, mu) is None
            )
            assert is_tight_column(cat, out.r, out.values)
            assert is_tight_column(cat, mu.r, mu.values) == tight_member(
                space_, mu
            )

    def test_sigma_agrees_with_presheaf_hom(self):
        rng = random.Random(63)
        for trial in range(20):
            space_ = random_partial_metric(rng, rng.randint(1, 4))
            cat = to_category(space_)
            mu = tighten_sweep(space_, sample_ambient(space_, ZERO, seed=trial))
            lam = tighten_sweep(
                space_, sample_ambient(space_, er("1/2"), seed=trial + 1000)
            )
            p_mu = Presheaf(cat, mu.r, mu.values)
            p_lam = Presheaf(cat, lam.r, lam.values)
            assert sigma(space_, mu, lam) == presheaf_hom(p_mu, p_lam)

    def test_density_formula_agrees_with_relational_route(self):
        from enritch.categories import QFunctor
        from enritch.hull import is_dense

        cases = [
            ({"a": "a", "b": "b"}, TWO_POINT, MIDPOINT),
            ({"a": "a"}, space(["a"], [[0]]), space(["a", "b"], [[0, 5], [5, 0]])),
            ({"a": "a", "b": "b"}, TWO_POINT, TWO_POINT),
        ]
        for mapping, dom, cod in cases:
            formula = dense_isometry_check(mapping, dom, cod)
            x_cat, y_cat = to_category(dom), to_category(cod)
            f = QFunctor(x_cat, y_cat, [y_cat.objects.index(mapping[x]) for x in x_cat.names])
            assert formula == is_dense(f)


class TestTightFamilies:
    def _tight_pool(self, space_, count, offset=0):
        pool = []
        for seed in range(count):
            base = ExtRat(Fraction(seed % 3, 2))
            mu = tighten_sweep(space_, sample_ambient(space_, base, seed=seed + offset))
            if all(mu.values != other.values or mu.r != other.r for other in pool):
                pool.append(mu)
        return pool

    def test_admissible_family_over_tight_functions_has_tight_witness(self):
        # ball systems over finitely many tight functions are discharged by
        # joining the balls back onto the base space and sweeping tight
        rng = random.Random(19)
        for trial in range(20):
            space_ = random_partial_metric(rng, rng.randint(1, 4))
            pool = self._tight_pool(space_, 4, offset=trial * 10)
            base_r = ZERO
            radii = []
            for mu in pool:
                worst = mu.r
                for nu in pool:
                    value = sigma(space_, mu, nu)
                    if value > worst:
                        worst = value
                slack = ExtRat(Fraction(rng.randint(0, 2), 2))
                radii.append(worst + slack)
            # admissibility of the family over the sigma distance
            for j, mu in enumerate(pool):
                assert base_r <= radii[j] and mu.r <= radii[j]
                for k, nu in enumerate(pool):
                    assert sigma(space_, mu, nu) <= radii[j].monus(base_r) + radii[k]
            # witness: join the balls into one function and sweep it tight
            lam_values = tuple(
                min(
                    radii[j].monus(pool[j].r) + pool[j].values[i]
                    for j in range(len(pool))
                )
                for i in range(len(space_))
            )
            lam = RadiusFunction(base_r, lam_values)
            assert ambient_violation(space_, lam) is None
            witness = tighten_sweep(space_, lam)
            for j, mu in enumerate(pool):
                assert sigma(space_, mu, witness) <= radii[j]

    def test_embedding_into_tight_function_sets_is_dense(self):
        # points embed isometrically into any finite set of tight functions
        # containing their own columns, and that embedding is always dense
        rng = random.Random(47)
        for trial in range(15):
            space_ = random_partial_metric(rng, rng.randint(1, 3))
            n = len(space_)
            yonedas = [
                RadiusFunction(
                    space_.alpha[i][i],
                    tuple(space_.alpha[j][i] for j in range(n)),
                )
                for i in range(n)
            ]
            pool = yonedas + self._tight_pool(space_, 3, offset=trial * 7)
            seen = {}
            members = []
            for mu in pool:
                key = (mu.r, mu.values)
                if key not in seen:
                    seen[key] = f"f{len(members)}"
                    members.append(mu)
            names = tuple(f"f{k}" for k in range(len(members)))
            beta = tuple(
                tuple(sigma(space_, mu, nu) for nu in members) for mu in members
            )
            span_like = ParMetSpace(names, beta)
            assert validate_partial_metric(span_like).valid
            mapping = {
                space_.points[i]: seen[(yonedas[i].r, yonedas[i].values)]
                for i in range(n)
            }
            assert dense_isometry_check(mapping, space_, span_like)


class TestMaximalityGrid:
    def test_no_grid_ambient_dominates_a_tight_function(self):
        rng = random.Random(21)
        spaces = [TWO_POINT, PARTIAL] + [
            random_partial_metric(rng, k, max_self=3, max_slack=3) for k in (2, 3, 3)
        ]
        for space_ in spaces:
            starts = [
                RadiusFunction(
                    ZERO, tuple(max(space_.alpha[i]) for i in range(len(space_)))
                ),
                sample_ambient(space_, ZERO, seed=2),
            ]
            for start in starts:
                mu = tighten_sweep(space_, start)
                assert grid_maximality_oracle(space_, mu)


# -- integer scans against the ExtRat loops they replaced ------------------------


def reference_validate(space_: ParMetSpace) -> ParMetReport:
    """The axiom scans on ExtRat values, as they ran before the integer scans."""
    pts = space_.points
    a = space_.alpha
    n = len(pts)

    self_witness = None
    for i in range(n):
        for j in range(n):
            if not (a[i][i] <= a[i][j] and a[j][j] <= a[i][j]):
                self_witness = (pts[i], pts[j])
                break
        if self_witness:
            break

    sym_witness = None
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                sym_witness = (pts[i], pts[j])
                break
        if sym_witness:
            break

    tri_witness = None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                bound = a[i][j].monus(a[j][j]) + a[j][k]
                if not a[i][k] <= bound:
                    tri_witness = (pts[i], pts[j], pts[k])
                    break
            if tri_witness:
                break
        if tri_witness:
            break

    return ParMetReport(
        self_bound=self_witness is None,
        self_bound_witness=self_witness,
        symmetric=sym_witness is None,
        symmetric_witness=sym_witness,
        triangle=tri_witness is None,
        triangle_witness=tri_witness,
    )


def reference_dense(mapping, dom: ParMetSpace, cod: ParMetSpace) -> bool:
    """The density identity on ExtRat values, for a map known to be isometric."""
    image = [cod.index(mapping[name]) for name in dom.points]
    b = cod.alpha
    m = len(cod)
    for y in range(m):
        for y2 in range(m):
            rhs = max(b[y][y], b[y2][y2])
            for fx in image:
                term = (b[fx][y2] + b[y][y]).monus(b[fx][y])
                if term > rhs:
                    rhs = term
            if b[y][y2] != rhs:
                return False
    return True


# Denominators 3, 5, 7 and 12 make the common denominator no power of 2.
DENOMINATORS = (1, 2, 3, 4, 5, 7, 12)


def random_cell(rng) -> ExtRat:
    if rng.random() < 0.15:
        return INF
    return ExtRat(Fraction(rng.randint(0, 24), rng.choice(DENOMINATORS)))


def from_rows(rows) -> ParMetSpace:
    return ParMetSpace(
        tuple(f"p{i}" for i in range(len(rows))), tuple(tuple(row) for row in rows)
    )


def random_matrix(rng, n: int) -> ParMetSpace:
    """A square matrix that fails the axioms in a random way, or none of them."""
    kind = rng.randrange(5)
    if kind == 0:  # anything: mostly self-bound failures
        return from_rows([[random_cell(rng) for _ in range(n)] for _ in range(n)])
    if kind == 1:  # self-bound and symmetry hold, the triangle is left to chance
        diag = [ExtRat(Fraction(rng.randint(0, 6), rng.choice(DENOMINATORS))) for _ in range(n)]
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = diag[i]
            for j in range(i + 1, n):
                cell = random_cell(rng)
                rows[i][j] = rows[j][i] = max(diag[i], diag[j]) + cell
        return from_rows(rows)
    valid = random_partial_metric(
        rng, n, allow_inf=True, max_self=8, max_slack=8, denominators=DENOMINATORS[2:]
    )
    rows = [list(row) for row in valid.alpha]
    if kind == 2 and n:  # one cell, or one symmetric pair, changed
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = random_cell(rng)
        if rng.random() < 0.5:
            rows[j][i] = rows[i][j]
    elif kind == 3 and n:  # a point at infinite distance from all, itself too
        i = rng.randrange(n)
        for j in range(n):
            rows[i][j] = rows[j][i] = INF
    return from_rows(rows)  # kind 4: left valid


def random_isometry(rng, cod: ParMetSpace):
    """A map into ``cod`` and the domain that makes it isometric."""
    m = len(cod)
    if m and rng.random() < 0.7:
        image = rng.sample(range(m), rng.randint(0, m))
    else:
        image = [rng.randrange(m) for _ in range(rng.randint(0, 3))] if m else []
    dom = ParMetSpace(
        tuple(f"d{i}" for i in range(len(image))),
        tuple(tuple(cod.alpha[u][v] for v in image) for u in image),
    )
    mapping = {f"d{i}": cod.points[u] for i, u in enumerate(image)}
    return mapping, dom


class TestIntegerScansDifferential:
    def test_random_small_matrices(self):
        rng = random.Random(4)
        seen, dense_seen = set(), set()
        for _ in range(3000):
            cod = random_matrix(rng, rng.randint(0, 7))
            report = validate_partial_metric(cod)
            assert report.to_dict() == reference_validate(cod).to_dict()
            seen.add((report.self_bound, report.symmetric, report.triangle))
            mapping, dom = random_isometry(rng, cod)
            dense = dense_isometry_check(mapping, dom, cod)
            assert dense == reference_dense(mapping, dom, cod)
            dense_seen.add(dense)
        # Every scan was seen to pass and to fail on its own.
        assert {(True, True, False), (True, False, True), (False, True, True),
                (True, True, True)} <= seen
        assert dense_seen == {True, False}

    def test_large_valid_spaces(self):
        rng = random.Random(5)
        for n in (24, 40, 64):
            valid = random_partial_metric(rng, n, allow_inf=True)
            # Stretch the last finite distance from p0 far beyond the rest:
            # only the triangle can fail.
            rows = [list(row) for row in valid.alpha]
            far = max(j for j in range(1, n) if rows[0][j] != INF)
            rows[0][far] = rows[far][0] = ExtRat(Fraction(1000, 7))
            stretched = from_rows(rows)
            for space_ in (valid, stretched):
                assert validate_partial_metric(space_).to_dict() == (
                    reference_validate(space_).to_dict()
                )
                mapping, dom = random_isometry(rng, space_)
                assert dense_isometry_check(mapping, dom, space_) == reference_dense(
                    mapping, dom, space_
                )
            assert validate_partial_metric(valid).valid
            report = validate_partial_metric(stretched)
            assert report.self_bound and report.symmetric and not report.triangle

    def test_identity_maps_reach_every_pair(self):
        # The term of fx = y reaches beta(y,y') at every pair, so the packed
        # density check runs every row to the end and accepts.
        rng = random.Random(6)
        for n in (1, 2, 24, 40):
            valid = random_partial_metric(rng, n, allow_inf=True)
            identity = {p: p for p in valid.points}
            assert dense_isometry_check(identity, valid, valid)
            assert reference_dense(identity, valid, valid)


# -- (rank, value) signed values against the tagged helpers they replaced ---------


_NEG_INF = ("neg_inf",)
_POS_INF = ("pos_inf",)


def _signed_diff(a: ExtRat, b: ExtRat):
    if b == INF:
        return ("fin", Fraction(0)) if a == INF else _NEG_INF
    if a == INF:
        return _POS_INF
    return ("fin", to_fraction(a) - to_fraction(b))


def _signed_max(current, candidate):
    order = {"neg_inf": 0, "fin": 1, "pos_inf": 2}
    if order[candidate[0]] != order[current[0]]:
        return candidate if order[candidate[0]] > order[current[0]] else current
    if candidate[0] == "fin" and candidate[1] > current[1]:
        return candidate
    return current


def _matches(signed, value: ExtRat) -> bool:
    if signed == _POS_INF:
        return value == INF
    if signed == _NEG_INF:
        return False
    return value != INF and to_fraction(value) == signed[1]


def reference_sup(firsts, seconds):
    """sup of firsts - seconds, folded over tagged signed values."""
    sup = _NEG_INF
    for a, b in zip(firsts, seconds):
        sup = _signed_max(sup, _signed_diff(a, b))
    return sup


def reference_raw_tight(space_: ParMetSpace, mu: RadiusFunction) -> bool:
    """The untruncated tight equation on tagged signed values."""
    return all(
        _matches(reference_sup(row, mu.values), v) for row, v in zip(space_.alpha, mu.values)
    )


def reference_sigma_check(space_: ParMetSpace, mu, lam) -> bool:
    value = oracles.sigma(space_, mu, lam)
    forward = reference_sup(mu.values, lam.values)
    backward = reference_sup(lam.values, mu.values)
    if len(space_) == 0:
        return value == ZERO
    if forward != backward or not _matches(forward, value):
        return False
    if forward == _NEG_INF or (forward[0] == "fin" and forward[1] < 0):
        return False
    return True


def classical_functions(rng, space_: ParMetSpace) -> list[RadiusFunction]:
    """Tight and non-tight radius functions at base radius 0, some infinite."""
    n = len(space_)
    out = [RadiusFunction(ZERO, row) for row in space_.alpha]  # Yoneda columns
    for seed in range(3):
        start = sample_ambient(space_, ZERO, seed=rng.randrange(10**6))
        out += [start, tighten_sweep(space_, start)]
    for mu in list(out):
        if n:
            i = rng.randrange(n)
            bumped = list(mu.values)
            bumped[i] = INF if rng.random() < 0.3 else bumped[i] + ExtRat(Fraction(1, 2))
            out.append(RadiusFunction(ZERO, tuple(bumped)))
    return out


def classical_spaces():
    rng = random.Random(11)
    for n in range(7):
        for _ in range(4):
            yield rng, random_partial_metric(rng, n, allow_inf=True, max_self=0)


class TestSignedValuesDifferential:
    def test_tight_check_matches_tagged_reference(self):
        verdicts = set()
        saw_infinite = False
        for rng, space_ in classical_spaces():
            saw_infinite |= any(v == INF for row in space_.alpha for v in row)
            for mu in classical_functions(rng, space_):
                verdict = classical_tight_check(space_, mu)
                assert verdict == reference_raw_tight(space_, mu)
                verdicts.add(verdict)
        assert saw_infinite
        assert verdicts == {True, False}

    def test_sigma_check_matches_tagged_reference(self, monkeypatch):
        # On tight pairs both checks pass.  With sigma replaced by a stub the
        # raw suprema are compared on any pair, against candidate values that
        # include the forward supremum itself.  The stub replaces the name
        # both checks call.
        true_sigma = oracles.sigma
        verdicts = set()
        for rng, space_ in classical_spaces():
            functions = classical_functions(rng, space_)
            tight = [mu for mu in functions if tight_member(space_, mu)]
            for mu, lam in itertools.product(tight, repeat=2):
                assert classical_sigma_check(space_, mu, lam)
                assert reference_sigma_check(space_, mu, lam)
            for mu, lam in itertools.product(functions[::2], repeat=2):
                forward = reference_sup(mu.values, lam.values)
                candidates = [ZERO, ExtRat(1), INF]
                if forward[0] == "fin" and forward[1] >= 0:
                    candidates.append(ExtRat(forward[1]))
                for value in candidates:
                    monkeypatch.setattr(oracles, "sigma", lambda *_: value)
                    verdict = classical_sigma_check(space_, mu, lam)
                    assert verdict == reference_sigma_check(space_, mu, lam)
                    verdicts.add(verdict)
            monkeypatch.setattr(oracles, "sigma", true_sigma)
        assert verdicts == {True, False}


# -- integer-row tight scans against the ExtRat loops they replaced ----------------


def split_space(rng, n: int) -> ParMetSpace:
    """Two random partial metrics side by side, at infinite distance."""
    k = rng.randint(1, n - 1)
    halves = [random_partial_metric(rng, m, allow_inf=True, max_self=8,
                                    denominators=DENOMINATORS) for m in (k, n - k)]
    rows = [list(row) + [INF] * (n - k) for row in halves[0].alpha]
    rows += [[INF] * k + list(row) for row in halves[1].alpha]
    return from_rows(rows)


def scan_spaces():
    """Seeded spaces of up to 24 points: valid ones with infinite distances
    and mixed denominators, split ones, and matrices failing the axioms."""
    rng = random.Random(28)
    for n in list(range(0, 9)) * 6 + [12, 16, 24] * 3:
        kind = rng.randrange(3)
        if kind == 0:
            yield rng, random_partial_metric(rng, n, allow_inf=True, max_self=8,
                                             denominators=DENOMINATORS)
        elif kind == 1 and n >= 2:
            yield rng, split_space(rng, n)
        else:
            yield rng, random_matrix(rng, n)


def random_radius(rng, space_: ParMetSpace) -> RadiusFunction:
    """Well typed (mostly), ambient or not, with infinite values and radii."""
    n = len(space_)
    r = random_cell(rng)
    above_rows = rng.random() < 0.6  # start at the row maxima: ambient, mostly
    values = []
    for i in range(n):
        row = space_.alpha[i] if above_rows else (space_.alpha[i][i],)
        base = max([r, *row])
        slack = ExtRat(Fraction(rng.choice((0, 0, 1, 2, 3)), rng.choice(DENOMINATORS)))
        values.append(INF if rng.random() < 0.08 else base + slack)
    if n and rng.random() < 0.1:  # ill typed or lowered at one point
        values[rng.randrange(n)] = random_cell(rng)
    if rng.random() < 0.02:
        values.append(ZERO)  # one value too many
    return RadiusFunction(r, tuple(values))


def outcome(fn, *args):
    """The value of ``fn(*args)`` and its printed form, or the error's type and message."""
    try:
        value = fn(*args)
    except EnritchError as exc:
        return type(exc), str(exc)
    if isinstance(value, RadiusFunction):
        return value, [str(value.r)] + [str(v) for v in value.values]
    return value, str(value)


class TestTightScansDifferential:
    def test_member_scans_and_the_sweep(self):
        seen = {"ambient": set(), "tight": set(), "sweep": set()}
        for rng, space_ in scan_spaces():
            for _ in range(6):
                mu = random_radius(rng, space_)
                for name, new, old in (
                    ("ambient", ambient_violation, oracles.extrat_ambient_violation),
                    ("tight", tight_violation, oracles.extrat_tight_violation),
                    ("sweep", tighten_sweep, oracles.extrat_tighten_sweep),
                ):
                    got = outcome(new, space_, mu)
                    assert got == outcome(old, space_, mu), (name, space_, mu)
                    seen[name].add(got[0] if isinstance(got[0], type) else got[0] is None)
        # witnesses and values, and every precondition error, were compared
        assert seen["ambient"] >= {True, False, PreconditionError}
        assert seen["tight"] >= {True, False, PreconditionError}
        assert seen["sweep"] >= {False, PreconditionError}

    def test_sigma_on_swept_pairs(self):
        values = set()
        for rng, space_ in scan_spaces():
            ambient = []
            while len(ambient) < 3 and len(space_):
                mu = random_radius(rng, space_)
                if outcome(oracles.extrat_ambient_violation, space_, mu)[0] is None:
                    ambient.append(mu)
            tight = [oracles.extrat_tighten_sweep(space_, mu) for mu in ambient]
            for mu, lam in itertools.product(tight + ambient[:1], repeat=2):
                got = outcome(sigma, space_, mu, lam)
                assert got == outcome(oracles.extrat_sigma, space_, mu, lam)
                values.add(got[1] if got[0] is PreconditionError else got[1] == "inf")
        assert values >= {True, False, "sigma is only defined between tight functions"}

    def test_invariant_errors_under_lies(self, monkeypatch):
        # A member check that lies makes the sweep run out of sweeps, lets
        # non-ambient input through to an increase, and lets sigma meet an
        # asymmetric pair: the errors must match the ExtRat loops'.
        errors = set()
        for lie in (False, True):
            for module, name in ((parmet, "tight_member"), (oracles, "extrat_tight_member")):
                monkeypatch.setattr(module, name, lambda space_, mu, lie=lie: lie)
            if lie:
                monkeypatch.setattr(parmet, "ambient_violation", lambda space_, mu: None)
                monkeypatch.setattr(oracles, "extrat_ambient_violation", lambda space_, mu: None)
            for rng, space_ in itertools.islice(scan_spaces(), 40):
                for _ in range(3):
                    mu, lam = random_radius(rng, space_), random_radius(rng, space_)
                    if len(mu.values) != len(space_) or len(lam.values) != len(space_):
                        continue
                    got = outcome(tighten_sweep, space_, mu)
                    assert got == outcome(oracles.extrat_tighten_sweep, space_, mu)
                    errors.add(got[1] if got[0] is InvariantError else None)
                    if lie:
                        got = outcome(sigma, space_, mu, lam)
                        assert got == outcome(oracles.extrat_sigma, space_, mu, lam)
                        errors.add(got[1] if got[0] is InvariantError else None)
        assert {"tightening must not increase any value",
                "sigma must be symmetric between tight functions"} <= errors
        assert any(e and "did not reach a fixed point" in e for e in errors)
