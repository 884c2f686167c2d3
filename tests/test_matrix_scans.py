"""The kernel's matrix scans against the per-cell loops they replaced.

``transitivity_witness``, ``distributor_holds`` and ``residual_matrix`` run
on the finite kernel's tables and, over the extended rationals, cell by
cell through the closed forms.  Each is compared with the loop it took over
(``tests/oracles.py``) on every input the suites can hand it: raw candidate
matrices, rejected ones included, product columns and tight spans, and on
seeded partial metrics for the extended rationals.  ``is_tight_column``,
which reads one row of ``residual_matrix``, is compared with the per-cell
``_tight_residual`` on the same inputs.
"""

from __future__ import annotations

import itertools
import random

import pytest

from enritch.categories import QCategory, _distributor_holds
from enritch.diagonals import DiagonalQuantaloid, FiniteDiagonals, diagonal_quantaloid
from enritch.errors import InvariantError, PreconditionError
from enritch.hull import enumerate_symmetric_categories, is_tight_column, tight_span
from enritch.parmet import RadiusFunction, ambient_violation, tighten_sweep, to_category
from enritch.rationals import ExtRat
from enritch.relations import QRelation, TypedSet

from conftest import random_partial_metric, shipped_quantale, swapped_diamond
from oracles import (
    Presheaf,
    _tight_residual,
    cell_distributor_holds,
    cell_transitivity_witness,
    presheaf_hom_matrix,
    presheaves,
    raw_symmetric_categories,
    yoneda,
)

FINITE = ["boolean", "lukasiewicz3", "lukasiewicz5", "nilmin5", "diamond", "diamond_swap"]


def quantale_named(name: str):
    return swapped_diamond() if name == "diamond_swap" else shipped_quantale(name)


def raw_candidates(dq, max_objects: int):
    """Every matrix the raw enumeration (``raw_symmetric_categories``)
    tests, valid or not, in its order."""
    objects = dq.objects()
    for n in range(max_objects + 1):
        names = tuple(f"x{i}" for i in range(n))
        pair_indices = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for types in itertools.product(objects, repeat=n):
            pools = [dq.hom(types[i], types[j]) for i, j in pair_indices]
            for choice in itertools.product(*pools):
                entries = [[dq.identity(types[i]) if i == j else None for j in range(n)]
                           for i in range(n)]
                for (i, j), u in zip(pair_indices, choice):
                    entries[i][j], entries[j][i] = u, dq.involve(u)
                carrier = TypedSet(dq, names, types)
                matrix = tuple(map(tuple, entries))
                yield QCategory(carrier, QRelation(carrier, carrier, matrix))


@pytest.mark.parametrize("name", FINITE)
def test_transitivity_witness_on_every_raw_candidate(name):
    # every 2-point candidate is a category; 3 points give rejections
    dq = diagonal_quantaloid(quantale_named(name))
    rejected = 0
    for c in raw_candidates(dq, 3):
        want = cell_transitivity_witness(c)
        assert dq.transitivity_witness(c.objects.types, c.hom.entries) == want, c.to_dict()
        rejected += want is not None
    assert rejected > 0


@pytest.mark.parametrize("name", FINITE)
def test_transitivity_witness_on_every_square_matrix(name):
    # square matrices need not be symmetric nor carry identities: every
    # 2-point matrix of diagonals, so the witness is not always (i, i, k)
    dq = diagonal_quantaloid(quantale_named(name))
    witnesses = set()
    for types in itertools.product(dq.objects(), repeat=2):
        pools = [dq.hom(types[i], types[j]) for i in range(2) for j in range(2)]
        for a, b, c, d in itertools.product(*pools):
            carrier = TypedSet(dq, ("x0", "x1"), types)
            cat = QCategory(carrier, QRelation(carrier, carrier, ((a, b), (c, d))))
            want = cell_transitivity_witness(cat)
            assert dq.transitivity_witness(types, ((a, b), (c, d))) == want, cat.to_dict()
            witnesses.add(want)
    assert len(witnesses) > 2


@pytest.mark.parametrize("name", FINITE)
def test_distributor_on_every_product_column(name):
    dq = diagonal_quantaloid(quantale_named(name))
    verdicts = set()
    for c in enumerate_symmetric_categories(dq, 2):
        types, hom = c.objects.types, c.hom.entries
        for q in dq.objects():
            for values in itertools.product(*(dq.hom(t, q) for t in types)):
                want = cell_distributor_holds(c, q, values)
                assert dq.distributor_holds(types, hom, q, values) == want, (c.to_dict(), values)
                verdicts.add(want)
    assert verdicts == {True, False}


# The suite bounds of l43 and t44, one class per isomorphism type.
SPANS = [(name, 3) for name in FINITE]


@pytest.mark.parametrize("name, bound", SPANS, ids=[f"{n}-b{b}" for n, b in SPANS])
def test_residual_matrix_on_every_tight_span(name, bound):
    dq = diagonal_quantaloid(quantale_named(name))
    spans = 0
    for c in raw_symmetric_categories(dq, bound, up_to_iso=True):
        span = tight_span(c)
        members = [Presheaf(c, q, values) for q, values in span.members]
        # tight_span's hom is residual_matrix(members, members)
        assert span.category.hom.entries == presheaf_hom_matrix(members, members)
        # a rectangular matrix: the members against the Yoneda columns
        yonedas = [yoneda(c, x) for x in c.names]
        assert dq.residual_matrix(
            span.members, [mu.pair for mu in yonedas]
        ) == presheaf_hom_matrix(members, yonedas)
        spans += 1
    assert spans > 0


def test_residual_matrix_on_every_presheaf_pair(luk3, diamond_swap):
    # every presheaf, not only the tight ones, on the 2-point categories
    for quantale in (luk3, diamond_swap):
        dq = diagonal_quantaloid(quantale)
        for c in enumerate_symmetric_categories(dq, 2):
            if len(c) != 2:
                continue
            sheaves = presheaves(c)
            columns = [mu.pair for mu in sheaves]
            assert dq.residual_matrix(columns, columns) == presheaf_hom_matrix(sheaves, sheaves)


# -- the extended rationals ---------------------------------------------------


def broken(c: QCategory, i: int, k: int, by: ExtRat) -> QCategory:
    """c with hom(i, k) and hom(k, i) raised by ``by`` (still diagonals)."""
    rows = [list(row) for row in c.hom.entries]
    rows[i][k] = rows[i][k] + by
    rows[k][i] = rows[k][i] + by
    return QCategory(c.objects, QRelation(c.objects, c.objects, tuple(map(tuple, rows))))


@pytest.mark.parametrize("seed", range(8))
def test_lawvere_scans_match_the_cell_loops(seed):
    rng = random.Random(f"matrix-scans-{seed}")
    c = to_category(random_partial_metric(rng, rng.randint(3, 6), allow_inf=seed % 2 == 1))
    dq = c.quantaloid
    types, hom, n = c.objects.types, c.hom.entries, len(c)
    assert dq.transitivity_witness(types, hom) is None is cell_transitivity_witness(c)

    # raising one pair of entries breaks a triangle through a third point
    witnesses = 0
    for _ in range(6):
        i, k = rng.sample(range(n), 2)
        bad = broken(c, i, k, ExtRat(rng.randint(1, 30)))
        want = cell_transitivity_witness(bad)
        assert dq.transitivity_witness(types, bad.hom.entries) == want
        witnesses += want is not None
    assert witnesses > 0

    presheaves = [yoneda(c, x) for x in c.names]
    verdicts = set()
    for _ in range(40):
        shift = ExtRat(rng.randint(0, 8))
        if rng.random() < 0.5:
            # hom(-, x) moved up by a constant is a presheaf of type |x| + shift
            x = rng.randrange(n)
            q = types[x] + shift
            values = tuple(hom[i][x] + shift for i in range(n))
        else:
            # a diagonal p -> q is at least max(p, q)
            q = rng.choice(types)
            values = tuple(max(t, q) + shift + ExtRat(rng.randint(0, 8)) for t in types)
        want = cell_distributor_holds(c, q, values)
        assert dq.distributor_holds(types, hom, q, values) == want
        verdicts.add(want)
        if want:
            presheaves.append(Presheaf(c, q, values))
        else:
            with pytest.raises(PreconditionError):
                Presheaf(c, q, values)
    assert verdicts == {True, False}

    columns = [(mu.q, mu.values) for mu in presheaves]
    assert dq.residual_matrix(columns, columns) == presheaf_hom_matrix(presheaves, presheaves)


# -- the tight equation -------------------------------------------------------


def reference_is_tight_column(c: QCategory, q, values) -> bool:
    """``is_tight_column`` on the per-cell ``_tight_residual`` (oracle)."""
    dq = c.quantaloid
    holds = tuple(map(dq.involve, values)) == _tight_residual(c, q, values)
    if holds and not _distributor_holds(c, q, values):
        raise InvariantError("a column satisfying the tight equation must be a presheaf")
    return holds


def outcome(check, c: QCategory, q, values):
    """The verdict of ``check``, or the class of the error it raised."""
    try:
        return check(c, q, values)
    except InvariantError as error:
        return type(error)


def same_outcomes(cases) -> set:
    """Compare ``is_tight_column`` with the oracle on (c, q, values) cases;
    the outcomes seen."""
    seen = set()
    for c, q, values in cases:
        want = outcome(reference_is_tight_column, c, q, values)
        assert outcome(is_tight_column, c, q, values) == want, (c.to_dict(), q, values)
        seen.add(want)
    return seen


def product_columns(dq):
    """Every column of every type on every category of at most 2 objects."""
    for c in enumerate_symmetric_categories(dq, 2):
        for q in dq.objects():
            for values in itertools.product(*(dq.hom(t, q) for t in c.objects.types)):
                yield c, q, values


@pytest.mark.parametrize("name", FINITE)
def test_is_tight_column_on_every_product_column(name):
    dq = diagonal_quantaloid(quantale_named(name))
    assert same_outcomes(product_columns(dq)) == {True, False}


def test_is_tight_column_raises_where_the_oracle_does(monkeypatch, luk3, diamond_swap):
    # a kernel that finds no column a presheaf: every tight column is an
    # invariant failure, every other column still answers False.  The cases
    # are built first, because the enumeration itself reads the distributor
    # law, and the patch covers both kernels, which share their class.
    cases = [
        list(product_columns(diagonal_quantaloid(quantale)))
        for quantale in (luk3, diamond_swap)
    ]
    monkeypatch.setattr(FiniteDiagonals, "distributor_holds", lambda *args: False)
    for quantale_cases in cases:
        assert same_outcomes(quantale_cases) == {InvariantError, False}


@pytest.mark.parametrize("seed", range(8))
def test_is_tight_column_on_partial_metrics(seed, monkeypatch):
    # the extended rationals take the base class's cell-by-cell residual_matrix
    rng = random.Random(f"tight-column-{seed}")
    space = random_partial_metric(rng, rng.randint(2, 6), allow_inf=seed % 2 == 1)
    c = to_category(space)
    types, hom, n = c.objects.types, c.hom.entries, len(c)
    columns = [(types[x], tuple(hom[i][x] for i in range(n))) for x in range(n)]
    while len(columns) < n + 30:
        r = ExtRat(rng.randint(0, 20))
        values = tuple(max(t, r) + ExtRat(rng.randint(0, 40)) for t in types)
        columns.append((r, values))
        mu = RadiusFunction(r, values)
        if ambient_violation(space, mu) is None:
            columns.append((r, tighten_sweep(space, mu).values))
    cases = [(c, q, values) for q, values in columns]
    assert same_outcomes(cases) == {True, False}

    # the Yoneda columns are tight: a kernel that finds no presheaf fails them
    monkeypatch.setattr(DiagonalQuantaloid, "distributor_holds", lambda *args: False)
    assert same_outcomes(cases) == {InvariantError, False}
