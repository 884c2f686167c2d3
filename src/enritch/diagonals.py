"""The quantaloid of diagonals of an integral involutive quantale.

A diagonal from p to q is an element u with (u/p) (x) p = u = q (x) (q\\u).
Diagonals compose by v . u = (v/q) (x) u, with q : q -> q as identities.
Restricting objects to the self-involutive elements (q with q deg = q)
yields the involutive sub-quantaloid on which all typed structures in this
library live.

``DiagonalQuantaloid`` is the kernel interface that the relation, category
and hull layers call, and the kernel is the one place that realizes a
quantale's arithmetic.  There is one implementation per kind of quantale:
``FiniteDiagonals`` reads every op from tables over element indices, and
``LawvereDiagonals`` realizes the extended rationals (``quantale.LAWVERE``)
by closed forms only.  ``diagonal_quantaloid`` builds a quantale's kernel
once and keeps it on the quantale; no other code asks whether a quantale
is finite.  Over the extended rationals ``objects``, ``hom`` and
``column_tables`` refuse.

Closed forms for the extended-rational quantale (writing values numerically,
``-`` for the truncated difference and ``max``/``min`` in the standard
order, where the quantale order is the reverse one):

    a <= b in the quantale  iff  a >= b         (0 is the top, inf the bottom)
    involution           = the identity          (every value is an object)
    hom(p, q)            = { u : u >= max(p, q) }   (solves the diagonal equation)
    hom_join             = min, hom_bottom = inf
    compose(u: p->q, v: q->r) = (v - q) + u
    w <swarrow> u        = max(q, r, (w + q) - u)    for u: p->q, w: p->r
    v <searrow> w        = max(p, q, (w + q) - v)    for v: q->r, w: p->r

For finite quantales every hom is enumerated at construction, which
verifies that homs are closed under joins, contain the bottom, and that the
three composition expressions agree on every triple.  Once that has passed,
the finite kernel is tabulated once per quantale: compose, both residuals and
the hom meets become table lookups over element indices, next to the
quantale's own order, join, meet and involution tables.

The build also codes each element a as the bitset of the join-irreducibles
below it (Ait-Kaci, Boyer, Lincoln and Nasr, "Efficient implementation of
lattice operations", ACM TOPLAS 1989).  In every finite lattice j <= a meet b
exactly when j <= a and j <= b, and every element is the join of the
join-irreducibles below it, so the code is injective and the meet of two
elements is the AND of their codes; no distributivity is needed, since only
meets are read off the codes.  ``column_tables(q)`` hands a search over
type-q columns the codes, the join, leq and involution tables, the residuals
out of q, and per type t a decoder from a code to the involute of the
largest element of hom(q, t) below it.  The search packs a whole residual
row into one integer, a field of code bits per point, so that its meets are
ANDs and its inner loops index tuples instead of calling the kernel.

Three matrix scans take a whole matrix where the other ops take a cell:
``transitivity_witness`` finds the first failure of hom . hom <= hom,
``distributor_holds`` checks one column's distributor law and
``residual_matrix`` fills the presheaf homs between two lists of columns.
The finite kernel runs them on its tables; the base runs them cell by cell
through the ops above, which is what the extended rationals use.
``residual_matrix`` is the one presheaf residual of the library: the tight
equation, the tight-column search, the tight span's hom and the transport
isometry all read its rows.  The relation calculus (``rel_residual``) keeps
its per-cell ``limpl``/``rimpl`` and ``hom_meet`` calls.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import PreconditionError, UnsupportedQuantaleError
from .quantale import FiniteQuantale, Quantale, _first_witness
from .rationals import INF

__all__ = ["DiagonalQuantaloid", "diagonal_quantaloid"]


def _composites(q: FiniteQuantale, u, mid, v) -> tuple:
    """The three expressions for v . u: (v/mid) (x) u, v (x) (mid\\u) and
    ((v/mid) (x) mid) (x) (mid\\u)."""
    over = q._residual_left(v, mid)
    under = q._residual_right(mid, u)
    return q._tensor(over, u), q._tensor(v, under), q._tensor(q._tensor(over, mid), under)


class DiagonalQuantaloid:
    """Payload-level diagonal calculus over a quantale instance.

    This is the kernel interface; ``diagonal_quantaloid`` builds the kernel
    that fits the quantale, ``FiniteDiagonals`` or ``LawvereDiagonals``.
    Payloads are the quantale's values: element indices or ``ExtRat``.
    """

    def __init__(self, quantale: Quantale):
        self.quantale = quantale
        # Memos of ``hull.is_essential_bruteforce`` and of the tight spans
        # (``hull._SpanMemo``, keyed on a span's (types, hom)); they die
        # with the quantale, so each load starts with both empty.
        self._essentiality: dict = {}
        self._spans: dict = {}
        self._build()

    def _build(self) -> None:
        """Verify and precompute what the kernel needs, once per quantale."""

    # -- objects ---------------------------------------------------------

    def is_object(self, t) -> bool:
        """Objects of the involutive part: elements fixed by the involution."""
        raise NotImplementedError

    def objects(self) -> tuple:
        """The symmetric objects in element load order (finite quantales only)."""
        raise NotImplementedError

    # -- homs --------------------------------------------------------------

    def is_hom(self, p, t, u) -> bool:
        raise NotImplementedError

    def hom(self, p, t) -> tuple:
        """Every diagonal p -> t in element load order (finite quantales only)."""
        raise NotImplementedError

    def identity(self, t):
        return t

    def hom_bottom(self, p, t):
        """The least diagonal p -> t: the quantale's bottom."""
        raise NotImplementedError

    def hom_top(self, p, t):
        raise NotImplementedError

    # -- composition and residuation ---------------------------------------

    def compose(self, u, mid, v):
        """v . u for u: p -> mid and v: mid -> r."""
        raise NotImplementedError

    def limpl(self, mid, r, u, w):
        """w <swarrow> u: the largest v: mid -> r with v . u <= w."""
        raise NotImplementedError

    def rimpl(self, p, mid, v, w):
        """v <searrow> w: the largest u: p -> mid with v . u <= w."""
        raise NotImplementedError

    def hom_join(self, p, t, values: Iterable):
        """Join inside the hom lattice: the quantale's join (the empty one is
        the bottom)."""
        raise NotImplementedError

    def hom_meet(self, p, t, values: Iterable):
        """Meet inside the hom lattice: the join of the common lower bounds."""
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        """The quantale's order."""
        raise NotImplementedError

    def involve(self, a):
        """The quantale's involution."""
        raise NotImplementedError

    def format(self, payload) -> str:
        """The name of a payload, as reports and files write it."""
        raise NotImplementedError

    # -- matrix scans ------------------------------------------------------
    # The base runs each scan cell by cell through the ops above, which is
    # what ``LawvereDiagonals`` uses; ``FiniteDiagonals`` scans its tables.

    def transitivity_witness(self, types: Sequence, hom: Sequence) -> tuple | None:
        """The first (i, j, k), in i, j, k order, with hom[j][k] . hom[i][j]
        not below hom[i][k], or None when the square matrix ``hom`` over
        objects of ``types`` absorbs its own square."""
        n = len(types)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    via = self.compose(hom[i][j], types[j], hom[j][k])
                    if not self.leq(via, hom[i][k]):
                        return i, j, k
        return None

    def distributor_holds(self, types: Sequence, hom: Sequence, q, values: Sequence) -> bool:
        """values . hom <= values for a column of type q: at every i the join
        over j of values[j] . hom[i][j] lies below values[i]."""
        n = len(types)
        for i in range(n):
            composed = self.hom_join(
                types[i],
                q,
                (self.compose(hom[i][j], types[j], values[j]) for j in range(n)),
            )
            if not self.leq(composed, values[i]):
                return False
        return True

    def residual_matrix(self, left: Sequence, right: Sequence) -> tuple:
        """The matrix of nu <swarrow> mu for (p, mu) in ``left`` and (t, nu) in
        ``right``, pairs of a type and a column over the same objects: each
        entry is the hom meet in hom(p, t) of limpl(p, t, mu[i], nu[i]) over
        i, the presheaf hom from mu to nu."""
        return tuple(
            tuple(
                self.hom_meet(p, t, (self.limpl(p, t, u, w) for u, w in zip(mu, nu)))
                for t, nu in right
            )
            for p, mu in left
        )

    # -- tables ------------------------------------------------------------

    def column_tables(self, q) -> tuple:
        """The lookup tables of a search over columns of type q (finite
        quantales only): ``(codes, join, leq, involve, residual, decoders)``.

        ``codes[a]`` is the bitset of the join-irreducibles below a, so
        ``codes[meet(a, b)] == codes[a] & codes[b]`` and the top's code has
        every bit set.  ``join``, ``leq`` and ``involve`` are the quantale's
        tables over element indices.  Every hom is closed under joins (the
        build verifies it), so ``join[a][b]`` is ``hom_join(p, t, (a, b))``
        for a and b in hom(p, t).  ``residual[r][u][w]`` is
        ``limpl(q, r, u, w)``, and ``decoders[t]`` maps the code of m to the
        involute of ``hom_meet(q, t, (m,))``, the largest element of hom(q, t)
        below m, so ``decoders[t][codes[a] & codes[b]]`` is the involute of
        ``hom_meet(q, t, (a, b))``.
        """
        raise NotImplementedError


def _join_irreducible_codes(leq: Sequence[Sequence[bool]]) -> tuple[int, ...]:
    """The code of each element of the finite lattice ordered by ``leq``:
    bit k is set when the k-th join-irreducible, in element order, lies below
    it.  A join-irreducible is an element with exactly one lower cover."""
    n = len(leq)
    below = [[b for b in range(n) if b != a and leq[b][a]] for a in range(n)]
    irreducibles = [
        a for a in range(n)
        if sum(not any(leq[b][c] for c in below[a] if c != b) for b in below[a]) == 1
    ]
    return tuple(
        sum(1 << k for k, j in enumerate(irreducibles) if leq[j][a]) for a in range(n)
    )


class FiniteDiagonals(DiagonalQuantaloid):
    """Table-driven kernel of a finite quantale.

    The build enumerates every hom, verifies the kernel laws and then
    tabulates compose, both residuals and the hom meets over payload indices.
    The order, join, meet and involution come from the quantale's own tables
    and the names from its elements.  A hom meet folds its arguments through
    the meet table first: in a lattice v lies below every s exactly when it
    lies below their meet.
    """

    def _build(self) -> None:
        q = self.quantale
        rng = q.payloads()
        self._names, self._involution = q.elements, q.involution_table

        def diagonal(p, t, u) -> bool:
            left = q._tensor(q._residual_left(u, p), p)
            return left == u and q._tensor(t, q._residual_right(t, u)) == u

        self._homs = {
            (p, t): tuple(u for u in rng if diagonal(p, t, u))
            for p in rng
            for t in rng
        }
        self._verify_kernels()
        homs, leq, join, bottom = self._homs, q.leq_table, q.join_table, q.bottom
        self._order, self._joins, self._meets = leq, join, q.meet_table
        self._bottom, self._top = bottom, q.top
        self._objects = tuple(t for t in rng if self.is_object(t))

        def joins_below(pairs) -> tuple:
            """Indexed by w: the join of every x of the (x, y) pairs with y <= w."""
            row = []
            for w in rng:
                acc = bottom
                for x, y in pairs:
                    if leq[y][w]:
                        acc = join[acc][x]
                row.append(acc)
            return tuple(row)

        compose = tuple(
            tuple(tuple(q._tensor(q._residual_left(v, mid), u) for v in rng) for u in rng)
            for mid in rng
        )
        self._compose = compose
        self._limpl = tuple(tuple(tuple(
            joins_below([(v, compose[mid][u][v]) for v in homs[(mid, r)]]) for u in rng
        ) for r in rng) for mid in rng)
        self._rimpl = tuple(tuple(tuple(
            joins_below([(u, compose[mid][u][v]) for u in homs[(p, mid)]]) for v in rng
        ) for mid in rng) for p in rng)
        self._hom_meet = tuple(
            tuple(joins_below([(v, v) for v in homs[(p, t)]]) for t in rng) for p in rng
        )
        codes = self._codes = _join_irreducible_codes(leq)
        involve = self._involution
        self._decoders = tuple(
            tuple({codes[m]: involve[cap[m]] for m in rng} for cap in caps)
            for caps in self._hom_meet
        )

    def _verify_kernels(self) -> None:
        q, homs, fmt = self.quantale, self._homs, self.format

        def hom_fault(p, t):
            hom = homs[(p, t)]
            if q.bottom not in hom:
                return (f"hom({fmt(p)}, {fmt(t)}) misses the bottom; the quantale"
                        " is not join-preserving enough for diagonals")
            if any(q._join((u, v)) not in hom for u in hom for v in hom):
                return f"hom({fmt(p)}, {fmt(t)}) is not closed under joins"
            return None

        def composite_fault(p, m, r):
            return next((
                "the three composition expressions disagree at "
                f"({fmt(u)}: {fmt(p)}->{fmt(m)}, {fmt(v)}: {fmt(m)}->{fmt(r)})"
                for u in homs[(p, m)] for v in homs[(m, r)]
                if len(set(_composites(q, u, m, v))) > 1
            ), None)

        # Every message is non-empty, so ``or`` runs the next scan only on None.
        message = (
            _first_witness(q, 2, hom_fault)
            or _first_witness(q, 1, lambda p: None if self.identity(p) in homs[(p, p)]
                              else f"identity {fmt(p)} is not a diagonal on itself")
            or _first_witness(q, 3, composite_fault)
        )
        if message is not None:
            raise PreconditionError(message)

    def is_object(self, t) -> bool:
        return self._involution[t] == t

    def objects(self) -> tuple:
        return self._objects

    def is_hom(self, p, t, u) -> bool:
        return u in self._homs[(p, t)]

    def hom(self, p, t) -> tuple:
        return self._homs[(p, t)]

    def hom_bottom(self, p, t):
        return self._bottom

    def hom_top(self, p, t):
        # Every diagonal p -> t lies below the quantale's top.
        return self._hom_meet[p][t][self._top]

    def compose(self, u, mid, v):
        return self._compose[mid][u][v]

    def limpl(self, mid, r, u, w):
        return self._limpl[mid][r][u][w]

    def rimpl(self, p, mid, v, w):
        return self._rimpl[p][mid][v][w]

    def hom_join(self, p, t, values: Iterable):
        join, result = self._joins, self._bottom
        for v in values:
            result = join[result][v]
        return result

    def hom_meet(self, p, t, values: Iterable):
        # A tight-span suite makes some 10^5 hom meets: fold the meet table
        # inline.
        meet, m = self._meets, self._top
        for s in values:
            m = meet[m][s]
        return self._hom_meet[p][t][m]

    def leq(self, a, b) -> bool:
        return self._order[a][b]

    def involve(self, a):
        return self._involution[a]

    def format(self, payload) -> str:
        return self._names[payload]

    def transitivity_witness(self, types: Sequence, hom: Sequence) -> tuple | None:
        # Indexing by a shared range beats zip and enumerate on matrices of
        # 2 to 20 rows.
        compose, order, ks = self._compose, self._order, range(len(types))
        for i, row in enumerate(hom):
            for j, (mid, u, hj) in enumerate(zip(types, row, hom)):
                via = compose[mid][u]
                for k in ks:
                    if not order[via[hj[k]]][row[k]]:
                        return i, j, k
        return None

    def distributor_holds(self, types: Sequence, hom: Sequence, q, values: Sequence) -> bool:
        # A join lies below w exactly when each of its arguments does.
        compose, order = self._compose, self._order
        for row, w in zip(hom, values):
            for mid, u, v in zip(types, row, values):
                if not order[compose[mid][u][v]][w]:
                    return False
        return True

    def residual_matrix(self, left: Sequence, right: Sequence) -> tuple:
        meet, top, limpl, caps = self._meets, self._top, self._limpl, self._hom_meet
        matrix = []
        for p, mu in left:
            lim, cap, row, ks = limpl[p], caps[p], [], range(len(mu))
            for t, nu in right:
                m, lim_t = top, lim[t]
                for k in ks:
                    m = meet[m][lim_t[mu[k]][nu[k]]]
                row.append(cap[t][m])
            matrix.append(tuple(row))
        return tuple(matrix)

    def column_tables(self, q) -> tuple:
        return (self._codes, self._joins, self._order, self._involution,
                self._limpl[q], self._decoders[q])


class LawvereDiagonals(DiagonalQuantaloid):
    """Closed-form kernel of the extended rationals (see the module notes)."""

    def is_object(self, t) -> bool:
        return self.involve(t) == t

    def objects(self) -> tuple:
        """Refused: the extended rationals are infinitely many."""
        raise UnsupportedQuantaleError(
            f"{self.quantale.name} has infinitely many elements;"
            " the partial-metric module covers the extended rationals"
        )

    def is_hom(self, p, t, u) -> bool:
        return u >= p and u >= t

    def hom(self, p, t) -> tuple:
        """Refused: the kernel is where enumeration over the extended rationals stops."""
        raise UnsupportedQuantaleError(
            "hom sets of the extended-rational quantaloid are infinite"
        )

    def hom_bottom(self, p, t):
        return INF

    def hom_top(self, p, t):
        return max(p, t)

    def column_tables(self, q) -> tuple:
        """Refused: the extended rationals have no finite tables."""
        raise UnsupportedQuantaleError(
            "the extended-rational quantaloid has no finite lookup tables"
        )

    def compose(self, u, mid, v):
        return v.monus(mid) + u

    def limpl(self, mid, r, u, w):
        return max(mid, r, (w + mid).monus(u))

    def rimpl(self, p, mid, v, w):
        return max(p, mid, (w + mid).monus(v))

    def hom_join(self, p, t, values: Iterable):
        result = INF
        for v in values:
            if v < result:
                result = v
        return result

    def hom_meet(self, p, t, values: Iterable):
        result = max(p, t)
        for v in values:
            if v > result:
                result = v
        return result

    def leq(self, a, b) -> bool:
        return a >= b

    def involve(self, a):
        return a

    def format(self, payload) -> str:
        return str(payload)


def diagonal_quantaloid(quantale: Quantale) -> DiagonalQuantaloid:
    """The kernel of ``quantale``, built on first use and kept on the quantale."""
    if quantale._diagonals is None:
        kernel = FiniteDiagonals if quantale.is_finite else LawvereDiagonals
        quantale._diagonals = kernel(quantale)
    return quantale._diagonals

