"""Exhaustive theorem suites driven by the command line.

Each suite enumerates every symmetric category over a finite quantale up to
an object bound (grown by one-point extensions, in a documented
deterministic order) and checks one named equivalence:

    t36   hypercomplete == every one-point extension retracts
          == every in-bound extension problem is solvable
    l43   the tight span of every category is hypercomplete
    t44   the embedding x |-> hom(-, x) into the tight span is fully
          faithful and (co)dense, its graph columns are tight, transport
          along it identifies the two tight spans, and tight presheaves
          are maximal among ambient ones
    t54   a fully faithful functor is dense exactly when the bounded
          essentiality brute force says it is essential

t36, l43 and t44 are properties of a category up to isomorphism, so each
verdict is computed once per isomorphism class (keyed on the canonical
signature that also picks ``is_essential_bruteforce``'s receivers) and
reused for every relabelling; the counts and the witness, the first raw
category that disagrees, are those of the per-category run.  t54 keys its
verdict on the codomain and the image of the functor, up to isomorphism (the
codomain's canonical signature with the image marked), and checks the first
functor of each class; its counts and witness are those of the per-functor
run.

The in-bound extension family for t36 consists of, for each candidate X:
the identity of X along the inclusion into every one-point extension of X,
and the inclusion W -> X along the inclusion of W into every one-point
extension of W, for every full subcategory W of X.  This family is rich
enough to refute injectivity whenever hypercompleteness fails (the failing
column itself builds a failing extension) while staying desk-scale.
"""

from __future__ import annotations

import itertools

from .categories import QCategory, QFunctor, graph
from .diagonals import diagonal_quantaloid
from .errors import BoundExceededError, PreconditionError
from .hull import (
    _canonical_signature,
    all_functors,
    enumerate_ambient,
    enumerate_symmetric_categories,
    extend_along,
    find_one_point_retraction,
    full_subcategory,
    inclusion_functor,
    is_codense,
    is_dense,
    is_essential_bruteforce,
    is_fully_faithful,
    is_hypercomplete,
    is_tight_column,
    one_point_extensions,
    tight_span,
    tight_span_restriction,
)
from .quantale import FiniteQuantale

__all__ = ["DOCUMENTED_BOUNDS", "run_suite"]

DOCUMENTED_BOUNDS = {"t36": 4, "l43": 4, "t44": 4, "t54": 3}


def _t36_single(x_cat: QCategory, strict: bool) -> dict:
    hyper = is_hypercomplete(x_cat, strict=strict).holds

    retract = all(
        find_one_point_retraction(x_cat, ext) is not None
        for ext in one_point_extensions(x_cat)
    )
    # W = X first, then the proper full subcategories by size.
    subcategories = itertools.chain(
        [x_cat],
        (
            full_subcategory(x_cat, names)
            for size in range(len(x_cat))
            for names in itertools.combinations(x_cat.names, size)
        ),
    )
    inject = all(
        extend_along(into_x, inclusion_functor(into_x.domain, ext)) is not None
        for into_x in (inclusion_functor(sub, x_cat) for sub in subcategories)
        for ext in one_point_extensions(into_x.domain)
    )

    return {
        "hypercomplete": hyper,
        "one_point_retracts": retract,
        "extensions_solvable": inject,
        "agree": hyper == retract == inject,
    }


def _l43_single(x_cat: QCategory, strict: bool) -> dict:
    span = tight_span(x_cat)
    result = is_hypercomplete(span.category, strict=strict)
    return {
        "tight_members": len(span.members),
        "span_hypercomplete": result.holds,
        "agree": result.holds,
    }


def _maximal_in_ambient(c: QCategory, members) -> bool:
    """No ambient column lies strictly above a (q, values) member of its
    type: one walk over the ambient columns, against the members by type."""
    leq = c.quantaloid.leq
    by_type: dict = {}
    for q, lam in members:
        by_type.setdefault(q, []).append(lam)
    return not any(
        mu != lam and all(map(leq, lam, mu))
        for q, mu in enumerate_ambient(c)
        for lam in by_type.get(q, ())
    )


def _t44_single(x_cat: QCategory) -> dict:
    span = tight_span(x_cat)
    embedding = span.yoneda_embedding()
    embedded = embedding is not None

    fully_faithful = dense = codense = columns_tight = transport_ok = maximal = False
    if embedded:
        # The transport's entry checks are full faithfulness and density:
        # when it runs, both hold, and only a refusal asks which failed.
        try:
            transport_ok = tight_span_restriction(embedding, span).ok
            fully_faithful = dense = True
        except PreconditionError:
            fully_faithful = is_fully_faithful(embedding)
            dense = is_dense(embedding)
        codense = is_codense(embedding)
        # Graph columns land in the tight span of the domain.
        gr = graph(embedding).entries
        columns_tight = all(
            is_tight_column(x_cat, q, tuple(row[j] for row in gr))
            for j, (q, _) in enumerate(span.members)
        )
        maximal = _maximal_in_ambient(x_cat, span.members)
    ok = all(
        [embedded, fully_faithful, dense, codense, columns_tight, transport_ok, maximal]
    )
    return {
        "yoneda_in_span": embedded,
        "fully_faithful": fully_faithful,
        "dense": dense,
        "codense": codense,
        "graph_columns_tight": columns_tight,
        "transport_isomorphism": transport_ok,
        "tight_maximal_in_ambient": maximal,
        "agree": ok,
    }


def _t54_single(f: QFunctor, bound: int) -> dict:
    dense = is_dense(f)
    essential = is_essential_bruteforce(f, max_objects=bound + 1).essential
    return {"dense": dense, "essential": essential, "agree": dense == essential}


def run_suite(
    theorem: str,
    quantale: FiniteQuantale,
    bound: int,
    strict: bool = True,
) -> dict:
    """Run one named suite and produce a structured, byte-stable report.

    ``strict=False`` (lax witness typing) is refused for t44 and t54, whose
    checks do not read the typing.
    """
    if theorem not in DOCUMENTED_BOUNDS:
        raise ValueError(f"unknown suite {theorem!r}")
    maximum = DOCUMENTED_BOUNDS[theorem]
    if bound < 0:
        raise BoundExceededError(f"suite {theorem} needs a bound of at least 0, got {bound}")
    if bound > maximum:
        raise BoundExceededError(
            f"suite {theorem} is documented up to bound {maximum}, got {bound}"
        )
    if not strict and theorem in ("t44", "t54"):
        raise PreconditionError(
            f"suite {theorem} has no lax reading: witness typing applies to t36 and l43 only"
        )
    cats = list(enumerate_symmetric_categories(diagonal_quantaloid(quantale), bound))

    if theorem == "t54":
        # The search of all_functors(full=True) checks every pair of each
        # functor it yields, so the items are trusted as they come; the
        # first of each class is validated again by is_fully_faithful at
        # is_essential_bruteforce's entry.  For a fully faithful f, density
        # reads only the rows hom_Y(fx, -), and g . f is fully faithful
        # exactly when g is on f(X) x f(X): both verdicts depend only on the
        # codomain and the image f(X), so they are keyed on the two up to
        # isomorphism.
        items = [
            f
            for x_cat in cats
            for y_cat in cats
            for f in all_functors(x_cat, y_cat, full=True)
        ]
        key = lambda f: _canonical_signature(f.codomain, marked=frozenset(f.assignment))
        single = lambda f: _t54_single(f, bound)
        shown = lambda f: {
            "domain": f.domain.to_dict(),
            "codomain": f.codomain.to_dict(),
            "map": f.as_dict(),
        }
    else:
        # Each verdict is invariant under relabelling the points.
        items, key = cats, _canonical_signature
        single = {
            "t36": lambda x_cat: _t36_single(x_cat, strict),
            "l43": lambda x_cat: _l43_single(x_cat, strict),
            "t44": _t44_single,
        }[theorem]
        shown = lambda x_cat: {"category": x_cat.to_dict()}
    # Check the first item of each class and reuse its verdict.
    memo: dict = {}
    verdicts = []
    for item in items:
        k = key(item)
        if k not in memo:
            memo[k] = single(item)
        verdicts.append(memo[k])
    label = "functors" if theorem == "t54" else "categories"

    failing = [k for k, verdict in enumerate(verdicts) if not verdict["agree"]]
    witness = {**shown(items[failing[0]]), **verdicts[failing[0]]} if failing else None
    return {
        "check": theorem,
        "result": not failing,
        "witness": witness,
        "quantale": quantale.name,
        "bound": bound,
        "strict_typing": strict,
        label: len(verdicts),
        "discrepancies": len(failing),
    }
