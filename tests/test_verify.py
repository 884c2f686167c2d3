"""The suites check one category, or for t54 one functor, per isomorphism
class.

``run_suite`` reuses the verdict of the first labelled category of each
class for the rest of it.  t54 generates the classes of (codomain, image)
from the subsets of each codomain's points, checks one inclusion per class
and counts each class's functors in closed form.  The differential tests
compare whole reports with the per-category and per-functor oracles and,
for t54, with the listing of every functor; the relabelling tests keep a
labelling bug in a single-category check visible, since the suite no longer
runs every labelling.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

import enritch.categories as categories
import enritch.hull as hull
import enritch.verify as verify
from enritch.diagonals import diagonal_quantaloid
from enritch.hull import enumerate_symmetric_categories
from enritch.verify import _l43_single, _maps_onto, _t36_single, _t44_single, run_suite

import oracles
from conftest import shipped_quantale, swapped_diamond
from oracles import (
    marked_signature,
    raw_symmetric_categories,
    relabel,
    run_suite_per_category,
    run_t54_listed,
    run_t54_per_functor,
    t44_single_checked_twice,
    t54_classes_every_codomain,
)

# Every shipped quantale, at every bound whose oracle run finishes in about
# a second.
INSTANCES = [
    ("boolean", 3),
    ("lukasiewicz3", 3),
    ("lukasiewicz5", 2),
    ("nilmin5", 2),
    ("diamond", 3),
    ("diamond_swap", 3),
]
SUITES = [("t36", True), ("l43", True), ("t44", True), ("t36", False), ("l43", False)]


def quantale_named(name: str):
    return swapped_diamond() if name == "diamond_swap" else shipped_quantale(name)


@pytest.mark.parametrize(
    "theorem, strict", SUITES, ids=[f"{t}-{'strict' if s else 'lax'}" for t, s in SUITES]
)
@pytest.mark.parametrize("name, bound", INSTANCES, ids=[f"{n}-b{b}" for n, b in INSTANCES])
def test_report_matches_the_per_category_oracle(name, bound, theorem, strict):
    quantale = quantale_named(name)
    want = run_suite_per_category(theorem, quantale, bound, strict)
    got = run_suite(theorem, quantale, bound, strict)
    assert json.dumps(got) == json.dumps(want)


T54_INSTANCES = [
    (name, bound)
    for name in ["boolean", "lukasiewicz3", "diamond", "nilmin5", "lukasiewicz5"]
    for bound in range(3)
] + [("diamond_swap", 2), ("boolean", 3)]


@pytest.mark.parametrize("name, bound", T54_INSTANCES, ids=[f"{n}-b{b}" for n, b in T54_INSTANCES])
def test_t54_report_matches_the_per_functor_oracle(name, bound):
    quantale = quantale_named(name)
    want = run_t54_per_functor(quantale, bound)
    got = run_suite("t54", quantale, bound)
    assert json.dumps(got) == json.dumps(want)


def assert_counting_matches_listing(quantale, bound: int) -> int:
    """Compare the t54 report, whose counts come from the classes, with the
    listing of every fully faithful functor (``run_t54_listed``), byte for
    byte.  Returns the number of functors."""
    want = run_t54_listed(quantale, bound)
    got = run_suite("t54", quantale, bound)
    assert json.dumps(got) == json.dumps(want)
    return got["functors"]


# Bound 3 on diamond, nilmin5 and lukasiewicz5 runs in a CI step.
LISTED_INSTANCES = [
    (name, bound)
    for name in ["boolean", "lukasiewicz3", "diamond", "nilmin5", "lukasiewicz5", "diamond_swap"]
    for bound in range(3)
] + [("boolean", 3), ("lukasiewicz3", 3)]


@pytest.mark.parametrize(
    "name, bound", LISTED_INSTANCES, ids=[f"{n}-b{b}" for n, b in LISTED_INSTANCES]
)
def test_t54_counts_match_the_listing_oracle(name, bound):
    assert assert_counting_matches_listing(quantale_named(name), bound) > 0


@pytest.mark.parametrize(
    "name, bound", LISTED_INSTANCES, ids=[f"{n}-b{b}" for n, b in LISTED_INSTANCES]
)
def test_t54_classes_match_keying_every_labelled_codomain(monkeypatch, name, bound):
    # keying only the first labelled copy of each codomain class keeps every
    # class, in the same order, with the same representative and count
    quantale = quantale_named(name)
    cats = list(enumerate_symmetric_categories(diagonal_quantaloid(quantale), bound))
    want = t54_classes_every_codomain(cats, bound)
    got = verify._t54_classes(cats, bound)
    assert list(got) == list(want)
    for key, (y_cat, image, count) in want.items():
        assert got[key][0] is y_cat and got[key][1:] == [image, count]
    report = run_suite("t54", quantale, bound)
    monkeypatch.setattr(verify, "_t54_classes", t54_classes_every_codomain)
    assert json.dumps(report) == json.dumps(run_suite("t54", quantale, bound))


def test_maps_onto_counts_the_surjections():
    for bound in range(6):
        for size in range(6):
            onto = sum(
                set(m) == set(range(size))
                for points in range(bound + 1)
                for m in itertools.product(range(size), repeat=points)
            )
            assert _maps_onto(size, bound) == onto, (size, bound)
    assert _maps_onto(0, 0) == _maps_onto(0, 5) == 1  # the empty functor only
    assert _maps_onto(3, 2) == 0


def test_a_passing_t54_never_walks_the_functors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a passing t54 lists no functor")

    monkeypatch.setattr(verify, "all_functors", refuse)
    report = run_suite("t54", quantale_named("diamond"), 2)
    assert report["result"] and report["functors"] == 188


def image_class(f) -> tuple:
    """The n! oracle's signature of f's codomain with f's image marked."""
    return marked_signature(f.codomain, f.assignment)


def fully_faithful_functors(quantale, bound: int) -> list:
    """Every fully faithful functor between labelled categories, in
    enumeration order, by the unpruned search."""
    cats = list(enumerate_symmetric_categories(diagonal_quantaloid(quantale), bound))
    return [
        f
        for x in cats
        for y in cats
        for f in hull.all_functors(x, y)
        if categories.is_fully_faithful(f)
    ]


def lie_about_density(monkeypatch, liar: tuple) -> None:
    """Flip the density verdict of every functor of the class ``liar``, on
    the suite and on the per-functor oracle alike: both reach it through
    ``_t54_single``."""
    real = verify.is_dense
    monkeypatch.setattr(verify, "is_dense", lambda f: real(f) != (image_class(f) == liar))


# The report form of each case's witness map, domain name -> codomain name.
WITNESS_MAPS = {("diamond", 2): {"x0": "x0"}, ("boolean", 3): {"x0": "x0", "x1": "x2"}}


@pytest.mark.parametrize("name, bound", [("diamond", 2), ("boolean", 3)])
def test_t54_witness_is_the_first_functor_of_the_failing_class(monkeypatch, name, bound):
    quantale = quantale_named(name)
    kept = fully_faithful_functors(quantale, bound)
    classes: dict = {}
    for f in kept:
        classes.setdefault(image_class(f), []).append(f)
    # the largest class that does not hold the first functor
    chosen = max((c for c in classes.values() if c[0] is not kept[0]), key=len)
    assert 1 < len(chosen) < len(kept)
    lie_about_density(monkeypatch, image_class(chosen[0]))
    want = run_t54_per_functor(quantale, bound)
    got = run_suite("t54", quantale, bound)
    assert json.dumps(got) == json.dumps(want)
    assert (got["functors"], got["discrepancies"]) == (len(kept), len(chosen))
    first = chosen[0]
    shown = got["witness"]["map"]
    assert shown == first.as_dict() == WITNESS_MAPS[name, bound]
    assert list(shown) == got["witness"]["domain"]["set"]["names"]
    assert set(shown.values()) <= set(got["witness"]["codomain"]["set"]["names"])
    assert got["witness"]["domain"] == first.domain.to_dict()
    assert got["witness"]["codomain"] == first.codomain.to_dict()


@pytest.mark.parametrize("which", ["first", "last"])
@pytest.mark.parametrize("name, bound", [("diamond", 2), ("lukasiewicz3", 2), ("boolean", 3)])
def test_t54_witness_at_either_end_of_the_walk(monkeypatch, name, bound, which):
    # "first": the class of the empty functor out of and into the empty
    # category, the very first functor; "last": the class whose first
    # functor comes after the first functor of every other class
    quantale = quantale_named(name)
    kept = fully_faithful_functors(quantale, bound)
    firsts: dict = {}
    for f in kept:
        firsts.setdefault(image_class(f), f)
    first = kept[0] if which == "first" else list(firsts.values())[-1]
    assert (len(first.domain), len(first.codomain)) == ((0, 0) if which == "first" else (bound, bound))
    lie_about_density(monkeypatch, image_class(first))
    want = run_t54_per_functor(quantale, bound)
    got = run_suite("t54", quantale, bound)
    assert json.dumps(got) == json.dumps(want)
    assert got["witness"]["map"] == first.as_dict()
    assert got["witness"]["domain"] == first.domain.to_dict()
    assert got["witness"]["codomain"] == first.codomain.to_dict()
    assert got["discrepancies"] == sum(image_class(f) == image_class(first) for f in kept)


@pytest.mark.parametrize("theorem", ["t36", "l43", "t44"])
def test_one_check_per_isomorphism_class(monkeypatch, luk3, theorem):
    name = f"_{theorem}_single"
    real = getattr(verify, name)
    checked = []
    monkeypatch.setattr(
        verify, name, lambda x_cat, *rest: checked.append(x_cat) or real(x_cat, *rest)
    )
    classes = list(raw_symmetric_categories(diagonal_quantaloid(luk3), 3, up_to_iso=True))
    for _ in range(2):  # the memo lives for one call only
        checked.clear()
        assert run_suite(theorem, luk3, 3)["categories"] == 117
        assert len(checked) == len(classes) == 46


@pytest.mark.parametrize("name", ["lukasiewicz3", "nilmin5"])
def test_t44_builds_and_checks_each_span_once(monkeypatch, name):
    quantale = shipped_quantale(name)
    spans, checked = [], []
    real_span, real_validate = hull.tight_span, categories.validate_category

    def counted_span(c):
        spans.append(real_span(c))
        return spans[-1]

    def counted_validate(c):
        checked.append(c)
        return real_validate(c)

    for module in (hull, verify):
        monkeypatch.setattr(module, "tight_span", counted_span)
    for module in (hull, categories):
        monkeypatch.setattr(module, "validate_category", counted_validate)
    classes = list(raw_symmetric_categories(diagonal_quantaloid(quantale), 2, up_to_iso=True))
    assert run_suite("t44", quantale, 2)["discrepancies"] == 0
    # per class: the span of x, then the span of that span, and nothing else
    assert len(spans) == 2 * len(classes)
    for span, span_of_span in zip(spans[::2], spans[1::2]):
        assert span_of_span.base is span.category
    # each span category passes validate_category once, inside tight_span
    for span in spans:
        assert sum(c is span.category for c in checked) == 1


@pytest.mark.parametrize("name, bound", INSTANCES, ids=[f"{n}-b{b}" for n, b in INSTANCES])
def test_single_checks_ignore_the_labelling(name, bound):
    rng = random.Random(f"relabel-{name}")
    cats = [
        c
        for c in enumerate_symmetric_categories(diagonal_quantaloid(quantale_named(name)), bound)
        if len(c) >= 2
    ]
    moved = 0
    for x_cat in rng.sample(cats, min(12, len(cats))):
        perm = list(range(len(x_cat)))
        while perm == sorted(perm):
            rng.shuffle(perm)
        y_cat = relabel(x_cat, perm)
        moved += y_cat.to_dict() != x_cat.to_dict()
        for strict in (True, False):
            for single in (_t36_single, _l43_single):
                assert single(y_cat, strict) == single(x_cat, strict), (
                    single.__name__, strict, x_cat.to_dict(), perm
                )
        assert _t44_single(y_cat) == _t44_single(x_cat)
    assert moved > 0  # some relabellings give a different labelled category



T44_CLASSES = ["boolean", "lukasiewicz3", "lukasiewicz5", "nilmin5", "diamond", "diamond_swap"]


@pytest.mark.parametrize("name", T44_CLASSES)
def test_t44_verdict_matches_the_oracle_that_checks_twice(name):
    # every class at bound 3: the transport decides full faithfulness and
    # density, and only a refusal computes them apart
    dq = diagonal_quantaloid(quantale_named(name))
    classes = list(raw_symmetric_categories(dq, 3, up_to_iso=True))
    for x_cat in classes:
        assert _t44_single(x_cat) == t44_single_checked_twice(x_cat), x_cat.to_dict()
    assert classes


@pytest.mark.parametrize("name", ["lukasiewicz3", "nilmin5"])
def test_t44_verdict_matches_the_oracle_when_density_fails(monkeypatch, name):
    # a lying is_dense for the embedding of one class, on every path that reads it
    dq = diagonal_quantaloid(quantale_named(name))
    classes = [c for c in raw_symmetric_categories(dq, 3, up_to_iso=True) if len(c) == 2]
    liar = classes[len(classes) // 2]
    real = hull.is_dense
    lying = lambda f: False if f.domain == liar else real(f)
    for module in (hull, verify, oracles):
        monkeypatch.setattr(module, "is_dense", lying)
    want = t44_single_checked_twice(liar)
    assert want["fully_faithful"] and not want["dense"]
    assert not want["transport_isomorphism"] and not want["agree"]
    assert _t44_single(liar) == want
    for x_cat in classes:
        assert _t44_single(x_cat) == t44_single_checked_twice(x_cat), x_cat.to_dict()
