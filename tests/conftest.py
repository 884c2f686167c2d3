from __future__ import annotations

from fractions import Fraction
from importlib.resources import files

import pytest

from enritch import fileio
from enritch.categories import QCategory
from enritch.diagonals import diagonal_quantaloid
from enritch.parmet import ParMetSpace, validate_partial_metric
from enritch.quantale import LAWVERE, FiniteQuantale
from enritch.rationals import INF, ExtRat
from enritch.relations import QRelation, TypedSet


def shipped_quantale(name: str) -> FiniteQuantale:
    """A fresh instance of a quantale the package ships in ``data/``: the
    tables the CLI and the benchmark read."""
    return fileio.load_quantale(files("enritch") / "data" / f"{name}.json")


@pytest.fixture(scope="session")
def boolean():
    return shipped_quantale("boolean")


@pytest.fixture(scope="session")
def luk3():
    return shipped_quantale("lukasiewicz3")


@pytest.fixture(scope="session")
def luk5():
    return shipped_quantale("lukasiewicz5")


@pytest.fixture(scope="session")
def nilmin5():
    return shipped_quantale("nilmin5")


@pytest.fixture(scope="session")
def diamond():
    return shipped_quantale("diamond")


def swapped_diamond() -> FiniteQuantale:
    """The diamond frame with the involution that swaps its atoms a and b.

    Every other instance has the identity involution, under which hom(x, -)
    and hom(-, x) cannot be told apart.
    """
    frame = shipped_quantale("diamond")
    return FiniteQuantale(
        elements=frame.elements,
        leq_table=frame.leq_table,
        tensor_table=[[frame.elements[k] for k in row] for row in frame.tensor_table],
        unit="top",
        involution_table=["bot", "b", "a", "top"],
        name="diamond_swap",
    )


@pytest.fixture(scope="session")
def diamond_swap():
    return swapped_diamond()


@pytest.fixture(scope="session")
def lawvere():
    return LAWVERE


def value(quantale, text):
    """The payload that ``text`` names: an element name of a finite quantale,
    or over ``LAWVERE`` an extended-rational literal ("n", "p/q", "inf"), an
    int, a Fraction or an ExtRat."""
    if isinstance(quantale, FiniteQuantale):
        return quantale.elements.index(text)
    if isinstance(text, ExtRat):
        return text
    return ExtRat.parse(text) if isinstance(text, str) else ExtRat(text)


def make_category(quantale, names, types, rows) -> QCategory:
    """Build a category from element names / value names (or ExtRat strings)."""
    dq = diagonal_quantaloid(quantale)
    carrier = TypedSet(
        dq, tuple(names), tuple(value(quantale, t) for t in types)
    )
    entries = tuple(
        tuple(value(quantale, cell) for cell in row) for row in rows
    )
    return QCategory(carrier, QRelation(carrier, carrier, entries))


def random_partial_metric(
    rng, n_points, allow_inf=False, max_self=16, max_slack=12, denominators=(1, 2, 4)
) -> ParMetSpace:
    """A valid random partial metric on exact rationals.

    Works in offset coordinates: pick self-distances s_i, pick symmetric
    edge weights beta(i, j) >= |s_i - s_j| / 2, close beta under min-plus
    (a shortest-path sweep), then set alpha(i, j) = beta(i, j) +
    (s_i + s_j) / 2.  In these coordinates the modified triangle inequality
    is the ordinary one for beta, so the result is always valid.
    """
    selfs = [
        Fraction(rng.randint(0, max_self), rng.choice(denominators))
        for _ in range(n_points)
    ]
    beta: list[list[Fraction | None]] = [[None] * n_points for _ in range(n_points)]
    for i in range(n_points):
        beta[i][i] = Fraction(0)
        for j in range(i + 1, n_points):
            if allow_inf and rng.random() < 0.15:
                beta[i][j] = beta[j][i] = None
            else:
                low = abs(selfs[i] - selfs[j]) / 2
                slack = Fraction(rng.randint(0, max_slack), rng.choice(denominators))
                beta[i][j] = beta[j][i] = low + slack
    for k in range(n_points):
        for i in range(n_points):
            for j in range(n_points):
                if beta[i][k] is None or beta[k][j] is None:
                    continue
                through = beta[i][k] + beta[k][j]
                if beta[i][j] is None or through < beta[i][j]:
                    beta[i][j] = through
    alpha = tuple(
        tuple(
            INF
            if beta[i][j] is None
            else ExtRat(beta[i][j] + (selfs[i] + selfs[j]) / 2)
            for j in range(n_points)
        )
        for i in range(n_points)
    )
    space = ParMetSpace(tuple(f"p{i}" for i in range(n_points)), alpha)
    assert validate_partial_metric(space).valid
    return space
