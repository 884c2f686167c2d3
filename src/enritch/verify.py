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
codomain's canonical signature with the image marked).  It lists no
functor: it generates the classes from the pairs (codomain, image), checks
the inclusion of the image into the codomain once per class, and counts the
functors of each class in closed form (``_t54_classes``).  Only when some
class fails does it walk the functors, in enumeration order, to the first
one of a failing class, the witness.  Its counts and witness are those of
the per-functor run.

The in-bound extension family for t36 consists of, for each candidate X:
the identity of X along the inclusion into every one-point extension of X,
and the inclusion W -> X along the inclusion of W into every one-point
extension of W, for every full subcategory W of X.  This family is rich
enough to refute injectivity whenever hypercompleteness fails (the failing
column itself builds a failing extension) while staying desk-scale.
"""

from __future__ import annotations

import itertools
import math

from .categories import QCategory, QFunctor
from .diagonals import diagonal_quantaloid
from .errors import BoundExceededError, InvariantError, PreconditionError
from .hull import (
    _canonical_signature,
    all_functors,
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
    type, decided by the upper covers of each coordinate, without listing
    the ambient columns.

    Lemma.  Let lam be a column of type q.  Some ambient mu != lam lies above
    lam exactly when, for some point z and some upper cover w of lam(z) in
    hom(|z|, q) (the kernel's ``covers``), the closure nu of lam' = lam[z |-> w]
    is admissible.  The closure (the kernel's ``closure``) is nu(x) = the
    join over y of lam'(y) . hom(x, y), the join that ``distributor_holds``
    bounds.

    Proof.  nu is a presheaf, as hom absorbs its own square, and nu >= lam',
    as hom contains the identities.  Given mu, pick z with lam(z) < mu(z) and
    a cover w of lam(z) with w <= mu(z); the hom is finite, so there is one.
    Then lam' <= mu, and nu <= mu since mu is a presheaf.  Admissibility is
    downward closed, so nu is admissible, hence ambient, and nu(z) >= w >
    lam(z), so nu != lam.  Conversely an admissible nu is such a mu.
    """
    dq = c.quantaloid
    types, hom = c.objects.types, c.hom.entries
    for q, lam in members:
        for z, (t, u) in enumerate(zip(types, lam)):
            for w in dq.covers(t, q, u):
                raised = lam[:z] + (w,) + lam[z + 1 :]
                if dq.admissible(types, hom, q, dq.closure(types, hom, q, raised)):
                    return False
    return True


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
        span_hom = span.category.hom.entries
        gr = [span_hom[a] for a in embedding.assignment]
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
    essential = is_essential_bruteforce(f, max_objects=bound + 1).essential
    dense = is_dense(f)
    return {"dense": dense, "essential": essential, "agree": dense == essential}


def _maps_onto(size: int, bound: int) -> int:
    """The maps from m points onto ``size`` points, summed over m <= bound:
    the surjections from m points onto k are, by inclusion-exclusion,
    surj(m, k) = sum over i of (-1)^i C(k, i) (k - i)^m (Stanley,
    *Enumerative Combinatorics* I, 1.9), and surj(0, 0) = 1."""
    return sum(
        (-1) ** i * math.comb(size, i) * (size - i) ** m
        for m in range(size, bound + 1)
        for i in range(size + 1)
    )


def _t54_classes(cats: list, bound: int) -> dict:
    """The (codomain, image) classes of the fully faithful functors between
    the categories ``cats`` (every symmetric category with at most ``bound``
    points), each with its first (codomain, image positions) pair and the
    number of functors in it, keyed on the codomain's canonical signature
    with the image marked.

    Why the count is exact.  A fully faithful f : X -> Y is fixed by Y, its
    image S and the surjection s from X's points onto S, with f = s.  X is
    then the pullback of Y along s: its point i has the type of s(i) in Y,
    as f keeps types, and hom_X(i, j) = hom_Y(s i, s j), as f is fully
    faithful.  Conversely, for any Y in ``cats``, any subset S of its points
    and any surjection s from m <= bound points onto S, that pullback is a
    valid symmetric category, since each of its hom entries, and each
    instance of its identity, transitivity and symmetry laws, is one of Y's
    at the points s(i); ``cats`` lists it exactly once, on the points
    x0 ... x{m-1}, and s is a fully faithful functor from it into Y with
    image S.  So the functors with codomain Y and image S number the maps
    onto S from at most ``bound`` points, ``_maps_onto`` of |S|.  The empty
    S takes only the empty functor, out of the empty category.

    Only the first labelled copy of each codomain class is keyed.  Its key
    with every point marked is the key of its isomorphism class, so a later
    copy is known by that one key; an isomorphism from the first copy onto
    it maps each subset to one of the same class.  So each class first
    occurs in the first copy, and its count is the first copy's times the
    number of copies.
    """
    per = [_maps_onto(size, bound) for size in range(bound + 1)]
    classes: dict = {}
    copies: dict = {}
    for y_cat in cats:
        points = range(len(y_cat))
        whole = _canonical_signature(y_cat, marked=frozenset(points))
        if whole in copies:
            copies[whole] += 1
            continue
        copies[whole] = 1
        for size in range(len(y_cat)):
            for image in itertools.combinations(points, size):
                key = _canonical_signature(y_cat, marked=frozenset(image))
                classes.setdefault(key, [y_cat, image, 0, whole])[2] += per[size]
        classes[whole] = [y_cat, tuple(points), per[len(y_cat)], whole]
    return {key: [y, image, n * copies[c]] for key, (y, image, n, c) in classes.items()}


def _first_in_classes(cats: list, keys) -> tuple:
    """The first fully faithful functor, in enumeration order (domain,
    codomain, then assignment), whose class is one of ``keys``, and its
    class."""
    for x_cat in cats:
        for y_cat in cats:
            for f in all_functors(x_cat, y_cat, full=True):
                key = _canonical_signature(y_cat, marked=frozenset(f.assignment))
                if key in keys:
                    return f, key
    raise InvariantError("a failing t54 class holds no functor")


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
        # The verdicts of a fully faithful f read only its codomain and its
        # image: density reads the rows hom_Y(fx, -), and g . f is fully
        # faithful exactly when g is on f(X) x f(X).  So each class is
        # checked on the inclusion of its image.
        classes = _t54_classes(cats, bound)
        verdicts = {}
        for key, (y_cat, image, _) in classes.items():
            sub = full_subcategory(y_cat, [y_cat.names[k] for k in image])
            verdicts[key] = _t54_single(QFunctor(sub, y_cat, image), bound)
        failing = {key for key, verdict in verdicts.items() if not verdict["agree"]}
        label, count = "functors", sum(n for _, _, n in classes.values())
        discrepancies = sum(classes[key][2] for key in failing)
        witness = None
        if failing:
            f, key = _first_in_classes(cats, failing)
            witness = {
                "domain": f.domain.to_dict(),
                "codomain": f.codomain.to_dict(),
                "map": f.as_dict(),
                **verdicts[key],
            }
    else:
        single = {
            "t36": lambda x_cat: _t36_single(x_cat, strict),
            "l43": lambda x_cat: _l43_single(x_cat, strict),
            "t44": _t44_single,
        }[theorem]
        # Each verdict is invariant under relabelling the points: check the
        # first category of each class and reuse its verdict.
        memo: dict = {}
        verdicts = []
        for x_cat in cats:
            key = _canonical_signature(x_cat)
            if key not in memo:
                memo[key] = single(x_cat)
            verdicts.append(memo[key])
        failing = [k for k, verdict in enumerate(verdicts) if not verdict["agree"]]
        label, count, discrepancies = "categories", len(verdicts), len(failing)
        witness = (
            {"category": cats[failing[0]].to_dict(), **verdicts[failing[0]]} if failing else None
        )
    return {
        "check": theorem,
        "result": not failing,
        "witness": witness,
        "quantale": quantale.name,
        "bound": bound,
        "strict_typing": strict,
        label: count,
        "discrepancies": discrepancies,
    }
