"""Exact extended non-negative rational arithmetic.

ExtRat models the interval [0, inf]: either a non-negative rational or the
distinguished value infinity.  Addition is commutative and associative with
infinity absorbing.  Subtraction is only available as a truncated difference
(``monus``) whose conventions are chosen so that ``b.monus(a)`` equals the
residual join ``{r : r + a >= b}`` computed in the reversed (quantale) order:

    b monus inf = 0        (including inf monus inf)
    inf monus a = inf      (a finite)
    b monus a   = max(0, b - a)   otherwise

All comparisons use the standard numeric order with infinity on top.

A value is two ints, a numerator ``_n`` and a denominator ``_d`` in lowest
terms, with ``_d > 0`` for a finite value; infinity is the pair ``(1, 0)``.
Then ``a <= b`` is the single cross-multiplication
``a._n * b._d <= b._n * a._d`` in every case.  Against infinity, the
product that takes its denominator 0 is 0, and the product that takes its
numerator 1 is the other value's positive denominator, so infinity sits
above every finite value with no branch, as ``n / d`` does for ``d -> 0``;
two infinities give ``0 <= 0``.  Equal values have equal pairs, which makes
``==`` and ``hash`` a pair comparison.

``max_monus(p, q, w, a, u)`` is max(p, q, (w + a) monus u) in one step on
the pairs, the shape of both residuals of the extended-rational diagonals:
it puts w + a - u over one denominator, compares it with the floor
max(p, q) by one cross-multiplication, and reduces with one ``gcd`` only
when the difference is above the floor; otherwise it returns p or q itself.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm

from .errors import BoundExceededError, SchemaError

__all__ = ["ExtRat", "INF", "ZERO", "integer_rows", "from_scaled", "max_monus"]

# The interpreter's int-to-string digit limit (its default where the limit
# is off): ``str`` of a numerator or denominator of more digits raises.
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
_TOO_LONG = 10**_MAX_DIGITS
# The least value the digit limit can be set to: ``int`` reads a shorter
# literal whatever the limit is at the time of the call.
_FAST_LENGTH = 640
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\Z")


class ExtRat:
    """A non-negative rational or infinity, immutable and hashable, built from
    an int, a Fraction or None (infinity); text goes through ``parse``."""

    __slots__ = ("_n", "_d")

    def __init__(self, value: int | Fraction | None = 0):
        if value is None:
            n, d = 1, 0
        else:
            if type(value) is bool or not isinstance(value, (int, Fraction)):
                raise TypeError(f"ExtRat takes an int, a Fraction or None, got {value!r}")
            if value < 0:
                raise ValueError(f"ExtRat must be non-negative, got {value}")
            n, d = value.numerator, value.denominator
        _set_n(self, n)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("ExtRat is immutable")

    @classmethod
    def parse(cls, text: str) -> "ExtRat":
        """Parse "p/q", "n" or "inf" (the serialization used in all files).

        Any other literal ``Fraction`` reads is accepted too, unless its
        numerator or denominator has more digits than ``str`` will write.
        The canonical "n" and "p/q" of ASCII digits, short of
        ``_FAST_LENGTH`` and with a non-zero denominator, skip ``Fraction``:
        ``from_scaled`` reduces them.  Every other text takes the
        ``Fraction`` path, which gives the same values and every error.
        """
        if not isinstance(text, str):
            raise SchemaError(f"expected a string rational, got {text!r}")
        if len(text) < _FAST_LENGTH and text.isascii():
            p, slash, q = text.partition("/")
            if p.isdigit() and (not slash or q.isdigit()):
                d = int(q) if slash else 1
                if d:
                    return from_scaled(int(p), d)
        text = text.strip()
        if text == "inf":
            return cls(None)
        if "e" in text or "E" in text:
            text = _bounded_exponent(text)
        try:
            frac = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational literal {text!r}: {exc}") from exc
        if frac.numerator < 0:
            raise SchemaError(f"negative rational {text!r} not allowed")
        if frac.numerator >= _TOO_LONG or frac.denominator >= _TOO_LONG:
            raise _too_long(text)
        return _pair(frac.numerator, frac.denominator)

    def __add__(self, other: "ExtRat") -> "ExtRat":
        if not isinstance(other, ExtRat):
            return NotImplemented
        d, e = self._d, other._d
        if not d or not e:
            return INF
        if d == e:
            n = self._n + other._n
        else:
            n = self._n * e + other._n * d
            d *= e
        g = gcd(n, d)
        return _pair(n // g, d // g)

    def monus(self, other: "ExtRat") -> "ExtRat":
        """Truncated difference; see the module docstring for conventions."""
        if not isinstance(other, ExtRat):
            raise TypeError(f"monus needs an ExtRat, got {other!r}")
        d, e = self._d, other._d
        if not e:
            return ZERO
        if not d:
            return INF
        if d == e:
            n = self._n - other._n
        else:
            n = self._n * e - other._n * d
            d *= e
        if n <= 0:
            return ZERO
        g = gcd(n, d)
        return _pair(n // g, d // g)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtRat) and self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._n, self._d))

    def __le__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        return self._n * other._d <= other._n * self._d

    def __lt__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        return self._n * other._d < other._n * self._d

    def __ge__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        return other <= self

    def __gt__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        return self._n * other._d > other._n * self._d

    def __str__(self) -> str:
        if not self._d:
            return "inf"
        if self._n >= _TOO_LONG or self._d >= _TOO_LONG:
            raise BoundExceededError(
                f"a value needs a numerator or denominator of more than {_MAX_DIGITS} digits"
            )
        return str(self._n) if self._d == 1 else f"{self._n}/{self._d}"

    def __repr__(self) -> str:
        # Hex digits are exempt from the digit limit, so repr never raises.
        if self._n >= _TOO_LONG or self._d >= _TOO_LONG:
            return f"ExtRat(Fraction({self._n:#x}, {self._d:#x}))"
        return f"ExtRat({str(self)!r})"


# The slots' own setters, past __setattr__.
_set_n = ExtRat._n.__set__
_set_d = ExtRat._d.__set__


def _pair(n: int, d: int) -> ExtRat:
    """An ExtRat from a reduced pair, without re-checking it.

    Sums and truncated differences of ExtRat values reduce their own pair;
    only the public constructor needs to convert and check.
    """
    value = object.__new__(ExtRat)
    _set_n(value, n)
    _set_d(value, d)
    return value


def _too_long(text: str) -> SchemaError:
    return SchemaError(
        f"rational literal {text[:40]!r} needs a numerator or denominator of"
        f" more than {_MAX_DIGITS} digits"
    )


def _bounded_exponent(text: str) -> str:
    """``text``, checked before ``Fraction`` computes 10**|e| for its exponent e.

    A mantissa of w digits, not all zero, times 10**e reduces to a numerator
    (e >= 0) or denominator (e < 0) of at least 10**(|e| - w), so |e| - w at
    or past the digit limit is refused.  A zero mantissa is zero whatever the
    exponent, and gets the exponent 0 instead.
    """
    match = _EXPONENT.search(text)
    if match is None:
        return text
    try:
        exponent = int(match.group(1))
    except ValueError:
        return text  # ``Fraction`` refuses it the same way
    mantissa = text[: match.start()]
    if abs(exponent) - sum(c.isdecimal() for c in mantissa) < _MAX_DIGITS:
        return text
    if any(c.isdecimal() and int(c) for c in mantissa):
        raise _too_long(text)
    return mantissa + "e0"


INF = ExtRat(None)
ZERO = ExtRat(0)


def integer_rows(matrix) -> list[list[int | None]]:
    """The rows of a matrix of ExtRat as integers over one common denominator.

    Each finite entry is multiplied by the least common multiple of the
    finite entries' denominators, which makes it an integer; infinity
    becomes None.  The scaling is a positive factor, so order, sums and
    truncated differences of the integers are exactly those of the
    entries.
    """
    denominator = lcm(*(cell._d for row in matrix for cell in row if cell._d))
    return [
        [cell._n * (denominator // cell._d) if cell._d else None for cell in row]
        for row in matrix
    ]


def max_monus(p: ExtRat, q: ExtRat, w: ExtRat, a: ExtRat, u: ExtRat) -> ExtRat:
    """max(p, q, (w + a).monus(u)), with the ``monus`` conventions, from one
    sum over one denominator, one comparison and at most one reduction.

    A difference at or below 0 never beats the floor, which is at least 0;
    an infinite floor has denominator 0, so the cross-multiplication puts
    it above every finite difference.
    """
    floor = p if q._n * p._d <= p._n * q._d else q
    e = u._d
    if not e:
        return floor
    b, c = w._d, a._d
    if not b or not c:
        return INF
    if b == c:
        n = w._n + a._n
    else:
        n = w._n * c + a._n * b
        b *= c
    if b == e:
        n -= u._n
    else:
        n = n * e - u._n * b
        b *= e
    if n * floor._d <= floor._n * b:
        return floor
    g = gcd(n, b)
    return _pair(n // g, b // g)


def from_scaled(k: int | None, denominator: int) -> ExtRat:
    """The ExtRat ``k / denominator``, the inverse of an ``integer_rows``
    scaling by ``denominator``: None is infinity."""
    if k is None:
        return INF
    g = gcd(k, denominator)
    return _pair(k // g, denominator // g)
