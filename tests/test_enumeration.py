"""Enumeration by one-point extension against the raw candidate loop.

``enumerate_symmetric_categories`` grows every category from its full
subcategory on the first n points.  ``raw_symmetric_categories``
(``tests/oracles.py``) is the loop it replaced: it validates every candidate
matrix, a type tuple with an upper triangle.  Both must yield the same
categories, with the same names, in the same order.  The receivers of
``is_essential_bruteforce``, one list by size, must be the raw loop's
``up_to_iso`` output, each size's end where the raw loop's next size starts,
and the class key must be the raw loop's n!-relabelling signature.

``one_point_extensions`` builds only the admissible presheaf columns and
validates none of them.  It must yield what the build-and-validate loop it
replaced (``validated_extensions``) yields, and what the ambient presheaves
give through ``extension_from_presheaf``; ``enumerate_presheaves`` must be
the product of the homs filtered by the per-cell distributor law, and
``enumerate_ambient`` the validated presheaves filtered by ``is_ambient``
(``ambient_presheaves``).  Both walks are lazy: the first extension costs
one admissibility check, not one per presheaf.

nilmin5 (17,809 categories) and lukasiewicz5 (79,424) at bound 4 are
checked by CI, through ``assert_matches_raw``, rather than here.
"""

from __future__ import annotations

import itertools

import pytest

import enritch.categories as categories
import enritch.hull as hull
from enritch.categories import QFunctor, enumerate_presheaves
from enritch.diagonals import diagonal_quantaloid
from enritch.hull import (
    _canonical_signature,
    _fresh_name,
    enumerate_ambient,
    enumerate_symmetric_categories,
    is_essential_bruteforce,
    one_point_extensions,
)

from conftest import make_category, shipped_quantale, swapped_diamond
from oracles import (
    ambient_presheaves,
    cell_distributor_holds,
    extension_from_presheaf,
    raw_canonical_signature,
    raw_symmetric_categories,
    relabel,
    validated_extensions,
)

FINITE = ["boolean", "lukasiewicz3", "lukasiewicz5", "nilmin5", "diamond", "diamond_swap"]

# (quantale, bound, categories up to the bound, the empty one included)
INSTANCES = [(name, 3, None) for name in FINITE] + [
    ("lukasiewicz3", 4, 1170),
    ("diamond", 4, 2959),
]


def quantale_named(name: str):
    return swapped_diamond() if name == "diamond_swap" else shipped_quantale(name)


def summary(c) -> tuple:
    return c.names, c.objects.types, c.hom.entries


def assert_matches_raw(quantale, bound: int) -> int:
    """Compare the two enumerations on a fresh kernel; the count of both."""
    dq = diagonal_quantaloid(quantale)
    got = [summary(c) for c in enumerate_symmetric_categories(dq, bound)]
    want = [summary(c) for c in raw_symmetric_categories(dq, bound)]
    assert got == want
    return len(got)


@pytest.mark.parametrize(
    "name, bound, count", INSTANCES, ids=[f"{n}-b{b}" for n, b, _ in INSTANCES]
)
def test_same_sequence_as_the_raw_enumeration(name, bound, count):
    got = assert_matches_raw(quantale_named(name), bound)
    assert count is None or got == count


def test_small_and_empty_bounds(luk3):
    assert assert_matches_raw(luk3, 2) == 18
    dq = diagonal_quantaloid(luk3)
    assert [summary(c) for c in enumerate_symmetric_categories(dq, 0)] == [((), (), ())]
    assert list(enumerate_symmetric_categories(dq, -1)) == []


# (quantale, receiver size): every receiver list t54 builds up to bound 3,
# and the one bound 4 would build on the quantales whose raw up_to_iso loop
# stays near a second.
RECEIVERS = [(name, z) for name in FINITE for z in (1, 2, 3)] + [
    ("lukasiewicz3", 4),
    ("diamond", 4),
]


@pytest.mark.parametrize(
    "name, z_bound", RECEIVERS, ids=[f"{n}-z{z}" for n, z in RECEIVERS]
)
def test_receivers_are_the_raw_classes(name, z_bound):
    dq = diagonal_quantaloid(quantale_named(name))
    y_cat = next(c for c in enumerate_symmetric_categories(dq, z_bound) if len(c) == z_bound)
    identity = QFunctor(y_cat, y_cat, range(z_bound))
    assert is_essential_bruteforce(identity, z_bound + 1).essential
    receivers, ends = dq._essentiality["receivers"]
    want = [summary(c) for c in raw_symmetric_categories(dq, z_bound, up_to_iso=True)]
    assert [summary(z_cat) for z_cat, _ in receivers] == want
    # the first k sizes of the one list are the classes of at most k points
    assert list(ends) == [sum(len(c[0]) <= k for c in want) for k in range(z_bound + 1)]


@pytest.mark.parametrize("name", FINITE)
def test_class_key_is_the_raw_signature(name):
    dq = diagonal_quantaloid(quantale_named(name))
    for c in enumerate_symmetric_categories(dq, 3):
        want = raw_canonical_signature(c.objects.types, c.hom.entries)
        assert _canonical_signature(c) == want, c.to_dict()
        perm = list(range(len(c)))[::-1]
        assert _canonical_signature(relabel(c, perm)) == want, c.to_dict()


# (quantale, bound): every category up to the bound is extended by one point
EXTENDED = [(name, 2) for name in FINITE] + [("lukasiewicz3", 3), ("diamond_swap", 3)]


@pytest.mark.parametrize(
    "name, bound", EXTENDED, ids=[f"{n}-b{b}" for n, b in EXTENDED]
)
def test_extensions_are_the_validated_and_the_ambient_ones(name, bound):
    # diamond_swap has the one non-trivial involution, on which the
    # (y, x, z) triples rest
    dq = diagonal_quantaloid(quantale_named(name))
    built = 0
    for c in enumerate_symmetric_categories(dq, bound):
        got = [summary(ext) for ext in one_point_extensions(c)]
        validated = validated_extensions(c, _fresh_name(c))
        assert got == [summary(ext) for ext in validated], c.to_dict()
        oracle = ambient_presheaves(c)
        assert list(enumerate_ambient(c)) == [mu.pair for mu in oracle], c.to_dict()
        ambient = [extension_from_presheaf(c, mu) for mu in oracle]
        assert got == [summary(ext) for ext in ambient], c.to_dict()
        built += len(got)
    assert built


@pytest.mark.parametrize(
    "name, bound", EXTENDED, ids=[f"{n}-b{b}" for n, b in EXTENDED]
)
def test_presheaves_are_the_filtered_product(name, bound):
    dq = diagonal_quantaloid(quantale_named(name))
    for c in enumerate_symmetric_categories(dq, bound):
        want = [
            (q, values)
            for q in dq.objects()
            for values in itertools.product(*(dq.hom(t, q) for t in c.objects.types))
            if cell_distributor_holds(c, q, values)
        ]
        got = list(enumerate_presheaves(c))
        assert got == want, c.to_dict()


def test_extensions_are_built_only_when_admissible(monkeypatch, nilmin5):
    # building every candidate and validating it makes 947 and 946 calls
    calls = {"validate_category": 0, "_extend_matrix": 0}
    for module, name in ((categories, "validate_category"), (hull, "_extend_matrix")):
        real = getattr(module, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    assert len(list(enumerate_symmetric_categories(diagonal_quantaloid(nilmin5), 3))) == 689
    # the one validation is the empty level-0 category's
    assert calls == {"validate_category": 1, "_extend_matrix": 688}


def test_first_extension_checks_one_column(monkeypatch, luk5):
    # the discrete three-point category of type 1 has 125 presheaves of
    # type 1 alone; the all-bottom column of the first type comes first and
    # is ambient, so the lazy walk stops after one admissibility check
    rows = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    c = make_category(luk5, ["a", "b", "c"], ["1"] * 3, rows)
    calls = []
    real = hull.column_admissible

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hull, "column_admissible", counted)
    first = next(one_point_extensions(c))
    assert len(first) == 4
    assert len(calls) == 1 < sum(1 for _ in enumerate_presheaves(c))
