"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check is exact (rational arithmetic or table lookups), and the
stated wall-clock budgets are asserted, not aspirational.
"""

import random
import time
from fractions import Fraction

from enritch.diagonals import diagonal_quantaloid
from enritch.hull import (
    all_functors,
    enumerate_ambient,
    enumerate_symmetric_categories,
    is_dense,
    is_essential_bruteforce,
    is_fully_faithful,
    tight_span,
)
from enritch.parmet import (
    ParMetSpace,
    RadiusFunction,
    dense_isometry_check,
    sigma,
    tight_member,
    tighten_sweep,
)
from enritch.quantale import LAWVERE, check_quantale_laws
from enritch.rationals import INF, ZERO, ExtRat
from enritch.verify import run_suite

from conftest import random_partial_metric, shipped_quantale
from oracles import classical_sigma_check, classical_tight_check, sample_ambient
from test_parmet import grid_maximality_oracle


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_quantale_law_suite():
    started = time.monotonic()
    instances = [
        shipped_quantale("boolean"),
        shipped_quantale("lukasiewicz3"),
        shipped_quantale("lukasiewicz5"),
        shipped_quantale("nilmin5"),
        shipped_quantale("diamond"),
    ]
    for quantale in instances:
        law_report = check_quantale_laws(quantale)
        assert law_report.passed, (quantale.name, law_report.failures())

    rng = random.Random(2024)
    pool = [ZERO, INF] + [
        ExtRat(Fraction(rng.randint(0, 40), rng.randint(1, 12))) for _ in range(60)
    ]
    triples = 0
    forced = [(ZERO, ZERO, ZERO), (INF, INF, INF), (ZERO, INF, ZERO), (INF, ZERO, INF)]
    samples = forced + [
        (rng.choice(pool), rng.choice(pool), rng.choice(pool)) for _ in range(10_500)
    ]
    for a, b, c in samples:
        lhs = a + b >= c  # tensor(a, b) <= c in the reversed order
        mid = a >= c.monus(b)
        rhs = b >= c.monus(a)
        assert lhs == mid == rhs, (a, b, c)
        triples += 1
    elapsed = time.monotonic() - started
    assert triples >= 10_000
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"5 finite instances exhaustive, {triples} rational triples, {elapsed:.2f}s")


def test_criterion_2_closed_form_residuals_match_oracle():
    started = time.monotonic()
    dq = diagonal_quantaloid(LAWVERE)
    rng = random.Random(77)
    base = [ZERO, INF] + [
        ExtRat(Fraction(rng.randint(0, 20), rng.randint(1, 6))) for _ in range(14)
    ]
    grid = sorted(set(base), key=lambda v: (v.is_infinite, v.fraction if not v.is_infinite else 0))
    triples = 0
    for p in grid:
        for q in grid:
            for r in grid:
                u = max(p, q) + rng.choice(grid[:6])  # a diagonal p -> q
                if u < max(p, q):
                    continue
                for w_extra in (ZERO, ExtRat(Fraction(1, 2)), INF):
                    w = max(p, r) + w_extra
                    left = dq.limpl(q, r, u, w)
                    # oracle: feasibility plus dominance over every grid candidate
                    assert left >= max(q, r)
                    assert left.monus(q) + u >= w
                    for v in grid:
                        if v >= max(q, r) and v.monus(q) + u >= w:
                            assert v >= left
                    # the mirror residual, against the same oracle: here v
                    # ranges over hom(q, r) and the unknown is in hom(p, q)
                    vv = max(q, r) + w_extra if not w_extra.is_infinite else INF
                    right = dq.rimpl(p, q, vv, w)
                    assert right >= max(p, q)
                    assert vv.monus(q) + right >= w
                    for cand in grid:
                        if cand >= max(p, q) and vv.monus(q) + cand >= w:
                            assert cand >= right
                    triples += 1
    elapsed = time.monotonic() - started
    assert triples >= 1000
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(2, f"{triples} diagonal triples, exact equality, {elapsed:.2f}s")


def test_criterion_3_injectivity_equivalence_chain():
    started = time.monotonic()
    totals = {}
    for quantale in (shipped_quantale("boolean"), shipped_quantale("lukasiewicz3")):
        outcome = run_suite("t36", quantale, bound=3, strict=True)
        assert outcome["result"], outcome
        assert outcome["discrepancies"] == 0
        totals[quantale.name] = outcome["categories"]
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"took {elapsed:.2f}s"
    report(3, f"categories checked: {totals}, zero discrepancies, {elapsed:.2f}s")


def test_criterion_4_tight_span_is_the_injective_hull(diamond_swap):
    started = time.monotonic()
    counts = {}
    for quantale in (shipped_quantale("boolean"), shipped_quantale("lukasiewicz3"), diamond_swap):
        l43 = run_suite("l43", quantale, bound=3)
        assert l43["result"], l43
        t44 = run_suite("t44", quantale, bound=3)
        assert t44["result"], t44
        t54 = run_suite("t54", quantale, bound=2)
        assert t54["result"], t54
        counts[quantale.name] = (l43["categories"], t54["functors"])
    elapsed = time.monotonic() - started
    report(4, f"(categories, functors) per instance: {counts}, zero discrepancies, {elapsed:.2f}s")


def test_criterion_5_maximality():
    started = time.monotonic()
    # exhaustive on finite instances
    checked = 0
    for quantale in (shipped_quantale("boolean"), shipped_quantale("lukasiewicz3")):
        dq = diagonal_quantaloid(quantale)
        for cat in enumerate_symmetric_categories(dq, 3):
            span = tight_span(cat)
            ambient = enumerate_ambient(cat)
            for lam in span.members:
                for mu in ambient:
                    if mu.q != lam.q:
                        continue
                    if all(
                        dq.leq(lam.values[i], mu.values[i]) for i in range(len(cat))
                    ):
                        assert mu.values == lam.values
                        checked += 1
    # grid brute force over the extended rationals
    rng = random.Random(5)
    spaces = [
        ParMetSpace(("a", "b"), ((ZERO, ExtRat(4)), (ExtRat(4), ZERO))),
        ParMetSpace(
            ("a", "b"),
            ((ExtRat(1), ExtRat(3)), (ExtRat(3), ExtRat(2))),
        ),
    ] + [random_partial_metric(rng, k, max_self=3, max_slack=3) for k in (2, 3, 3)]
    grid_checked = 0
    for space in spaces:
        for seed in (0, 1):
            mu = tighten_sweep(space, sample_ambient(space, ZERO, seed=seed))
            assert grid_maximality_oracle(space, mu), (space, mu.values)
            grid_checked += 1
    elapsed = time.monotonic() - started
    report(
        5,
        f"{checked} finite dominations all equalities, "
        f"{grid_checked} grid brute-force checks, {elapsed:.2f}s",
    )


def test_criterion_6_partial_metric_tight_spans():
    started = time.monotonic()
    rng = random.Random(31415)
    spaces_checked = 0
    while spaces_checked < 100:
        n = rng.randint(1, 6)
        space = random_partial_metric(rng, n, allow_inf=(spaces_checked % 7 == 3))
        base = ExtRat(Fraction(rng.randint(0, 6), rng.choice((1, 2, 4))))
        mu = sample_ambient(space, base, seed=spaces_checked)
        tight = tighten_sweep(space, mu)
        assert tight_member(space, tight)
        assert all(t <= m for t, m in zip(tight.values, mu.values))
        assert sigma(space, tight, tight) == base  # sigma asserts symmetry itself
        # exact embedding isometry
        for i in range(n):
            yi = RadiusFunction(
                space.alpha[i][i], tuple(space.alpha[j][i] for j in range(n))
            )
            for j in range(n):
                yj = RadiusFunction(
                    space.alpha[j][j], tuple(space.alpha[k][j] for k in range(n))
                )
                assert sigma(space, yi, yj) == space.alpha[i][j]
        spaces_checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report(6, f"{spaces_checked} generated spaces, exact, {elapsed:.2f}s")


def test_criterion_7_classical_reduction():
    started = time.monotonic()
    two_point = ParMetSpace(("a", "b"), ((ZERO, ExtRat(4)), (ExtRat(4), ZERO)))
    # the untruncated and truncated equations agree on classical inputs
    rng = random.Random(9)
    agreements = 0
    for trial in range(60):
        n = rng.randint(1, 5)
        base = random_partial_metric(rng, n)
        rows = tuple(
            tuple(
                ZERO
                if i == j
                else base.alpha[i][j].monus(
                    ExtRat((base.alpha[i][i].fraction + base.alpha[j][j].fraction) / 2)
                )
                for j in range(n)
            )
            for i in range(n)
        )
        classical = ParMetSpace(base.points, rows)
        tight = tighten_sweep(classical, sample_ambient(classical, ZERO, seed=trial))
        assert classical_tight_check(classical, tight)  # asserts both formulations
        other = tighten_sweep(
            classical, sample_ambient(classical, ZERO, seed=trial + 999)
        )
        assert classical_sigma_check(classical, tight, other)
        agreements += 1
    # the two-point tight set is exactly the rational-grid segment t + s = 4
    quarters = [Fraction(k, 4) for k in range(17)]
    segment = 0
    for t in quarters:
        for s in quarters:
            mu = RadiusFunction(ZERO, (ExtRat(t), ExtRat(s)))
            assert tight_member(two_point, mu) == (t + s == 4)
            segment += t + s == 4
    assert segment == 17
    elapsed = time.monotonic() - started
    report(7, f"{agreements} classical spaces, segment of {segment} grid points, {elapsed:.2f}s")


def test_criterion_8_density():
    started = time.monotonic()
    two_point = ParMetSpace(("a", "b"), ((ZERO, ExtRat(4)), (ExtRat(4), ZERO)))
    midpoint = ParMetSpace(
        ("a", "b", "m"),
        (
            (ZERO, ExtRat(4), ExtRat(2)),
            (ExtRat(4), ZERO, ExtRat(2)),
            (ExtRat(2), ExtRat(2), ZERO),
        ),
    )
    assert dense_isometry_check({"a": "a", "b": "b"}, two_point, midpoint)
    one = ParMetSpace(("a",), ((ZERO,),))
    discrete = ParMetSpace(("a", "b"), ((ZERO, ExtRat(5)), (ExtRat(5), ZERO)))
    assert not dense_isometry_check({"a": "a"}, one, discrete)

    # finite-quantale mirror: density and bounded essentiality agree
    quantale = shipped_quantale("boolean")
    dq = diagonal_quantaloid(quantale)
    cats = list(enumerate_symmetric_categories(dq, 2))
    functors = 0
    for x_cat in cats:
        for y_cat in cats:
            for f in all_functors(x_cat, y_cat):
                if not is_fully_faithful(f):
                    continue
                assert is_dense(f) == is_essential_bruteforce(f, max_objects=3).essential
                functors += 1
    elapsed = time.monotonic() - started
    report(8, f"fixtures true/false as required, {functors} mirror functors, {elapsed:.2f}s")
