"""Seeded partial-metric inputs and a fractions reference for their answers.

The generator uses the offset-coordinate construction: pick self-distances
s_i, pick symmetric edge weights beta(i, j) >= |s_i - s_j| / 2, close beta
under min-plus (a shortest-path sweep), and set
alpha(i, j) = beta(i, j) + (s_i + s_j) / 2.  Every draw is a multiple of
1/8, so the closure runs on integers in eighths and converts at the end.

Values are ``Fraction`` or ``None`` for infinity, and ``fmt`` prints them
the way the program does ("p/q", "n", "inf").  The reference functions below
recompute every answer the ``hull`` commands and the library query give,
without importing the program.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


def fmt(value: Fraction | None) -> str:
    return "inf" if value is None else str(value)


def add(a, b):
    return None if a is None or b is None else a + b


def monus(b, a):
    """b - a truncated at 0, with b - inf = 0 and inf - a = inf (a finite)."""
    if a is None:
        return ZERO
    if b is None:
        return None
    return b - a if b > a else ZERO


def vmax(*values):
    """Maximum in the numeric order, with infinity on top."""
    if any(v is None for v in values):
        return None
    return max(values)


def le(a, b) -> bool:
    return b is None or (a is not None and a <= b)


# -- generation --------------------------------------------------------------


def random_space(rng, n: int, split: bool = False, max_self=16, max_slack=12):
    """A valid partial metric on n points as a matrix of Fraction | None.

    With ``split`` the points form two halves with no edge between them, so
    every distance across the halves stays infinite after the closure.
    """
    eighths = lambda k, den: k * (8 // den)
    denominators = (1, 2, 4)
    selfs = [eighths(rng.randint(0, max_self), rng.choice(denominators)) for _ in range(n)]
    half = n // 2 if split else n
    beta: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        beta[i][i] = 0
        for j in range(i + 1, n):
            if (i < half) != (j < half):
                continue
            low = abs(selfs[i] - selfs[j]) // 2
            slack = eighths(rng.randint(0, max_slack), rng.choice(denominators))
            beta[i][j] = beta[j][i] = low + slack
    for k in range(n):
        row_k = beta[k]
        for i in range(n):
            b_ik = beta[i][k]
            if b_ik is None:
                continue
            row_i = beta[i]
            for j in range(n):
                b_kj = row_k[j]
                if b_kj is not None and (row_i[j] is None or b_ik + b_kj < row_i[j]):
                    row_i[j] = b_ik + b_kj
    return [
        [
            None if beta[i][j] is None
            else Fraction(beta[i][j] + (selfs[i] + selfs[j]) // 2, 8)
            for j in range(n)
        ]
        for i in range(n)
    ]


def ambient(rng, alpha, r):
    """Row maxima plus bounded slack: alpha(x, y) <= mu(x) - r + mu(y) holds."""
    values = []
    for row in alpha:
        slack = Fraction(rng.randint(0, 8), rng.choice((1, 2, 3, 4)))
        values.append(add(vmax(r, *row), slack))
    return values


def family_around(rng, alpha, strict_hint: bool):
    """An admissible ball family built around a centre point z.

    With r <= alpha(z, z) and every radius at least alpha(centre, z), the
    triangle inequality through z gives the pairwise condition, so the family
    is admissible and z lies in every ball.  With ``strict_hint`` the base
    radius is alpha(z, z), so a strictly typed witness exists too.
    """
    n = len(alpha)
    z = rng.randrange(n)
    base = alpha[z][z]
    r = base if strict_hint or base == 0 else base * Fraction(rng.randint(0, 3), 4)
    size = rng.randint(1, min(n, 5))
    family = []
    for c in rng.sample(range(n), size):
        slack = Fraction(rng.randint(0, 2), rng.choice((1, 2)))
        family.append((c, add(vmax(r, alpha[c][c], alpha[c][z]), slack)))
    return r, family


# -- reference answers --------------------------------------------------------


def _rhs(alpha, r, values, i):
    row = alpha[i]
    terms = [monus(add(row[j], r), values[j]) for j in range(len(values))]
    return vmax(r, row[i], *terms)


def tight_violation(alpha, r, values) -> int | None:
    """Index of the first point where mu(x) = r max alpha(x,x) max
    sup_y(alpha(x,y) + r - mu(y)) fails, or None."""
    for i in range(len(values)):
        if values[i] != _rhs(alpha, r, values, i):
            return i
    return None


def tighten(alpha, r, values):
    """In-place sweeps in point order until the fixed-point equation holds."""
    values = list(values)
    n = len(values)
    for _ in range(max(n * n, 1)):
        for z in range(n):
            row = alpha[z]
            values[z] = vmax(
                r, row[z],
                *(monus(add(row[y], r), values[y]) for y in range(n) if y != z),
            )
        if tight_violation(alpha, r, values) is None:
            return values
    raise ValueError("sweeps did not reach a tight function")


def sigma_one_way(r1, first, r2, second):
    """r1 max r2 max sup_x(second(x) + r1 - first(x))."""
    return vmax(r1, r2, *(monus(add(s, r1), f) for f, s in zip(first, second)))


def family_check(alpha, r, family, strict: bool):
    """(admissible, violation, witness index) in the program's scan order."""
    for c, rad in family:
        if not le(r, rad):
            return False, ("radius_below_base", c), None
        if not le(alpha[c][c], rad):
            return False, ("radius_below_self_distance", c), None
    for cj, rj in family:
        for ck, rk in family:
            if not le(alpha[cj][ck], add(monus(rj, r), rk)):
                return False, ("pair", cj, ck), None
    for z in range(len(alpha)):
        if strict and alpha[z][z] != r:
            continue
        if all(le(alpha[c][z], rad) for c, rad in family):
            return True, None, z
    return True, None, None


def is_dense(beta, image) -> bool:
    """beta(y, y') = beta(y,y) max beta(y',y') max
    sup_x(beta(fx, y') + beta(y,y) - beta(fx, y)) at every pair."""
    m = len(beta)
    for y in range(m):
        for y2 in range(m):
            terms = [monus(add(beta[fx][y2], beta[y][y]), beta[fx][y]) for fx in image]
            if beta[y][y2] != vmax(beta[y][y], beta[y2][y2], *terms):
                return False
    return True


def is_partial_metric(alpha) -> bool:
    n = len(alpha)
    for i in range(n):
        for j in range(n):
            if alpha[i][j] != alpha[j][i]:
                return False
            if not (le(alpha[i][i], alpha[i][j]) and le(alpha[j][j], alpha[i][j])):
                return False
            for k in range(n):
                if not le(alpha[i][k], add(monus(alpha[i][j], alpha[j][j]), alpha[j][k])):
                    return False
    return True


def hom_left_residual(alpha):
    """(hom <swarrow> hom)(y, z) over the extended rationals, in closed form:
    the largest of t_y, t_z and (alpha(x, z) + t_y) - alpha(x, y) over x,
    with t the self-distances."""
    n = len(alpha)
    return [
        [
            vmax(
                alpha[j][j], alpha[k][k],
                *(monus(add(alpha[i][k], alpha[j][j]), alpha[i][j]) for i in range(n)),
            )
            for k in range(n)
        ]
        for j in range(n)
    ]
