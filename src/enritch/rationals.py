"""Exact extended non-negative rational arithmetic.

ExtRat models the interval [0, inf]: either a non-negative rational in
canonical reduced form or the distinguished value infinity.  Addition is
commutative and associative with infinity absorbing.  Subtraction is only
available as a truncated difference (``monus``) whose conventions are chosen
so that ``b.monus(a)`` equals the residual join ``{r : r + a >= b}`` computed
in the reversed (quantale) order:

    b monus inf = 0        (including inf monus inf)
    inf monus a = inf      (a finite)
    b monus a   = max(0, b - a)   otherwise

All comparisons use the standard numeric order with infinity on top.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import SchemaError

__all__ = ["ExtRat", "INF", "ZERO", "integer_rows"]


class ExtRat:
    """A non-negative rational or infinity, immutable and hashable, built from
    an int, a Fraction or None (infinity); text goes through ``parse``."""

    __slots__ = ("_frac",)

    def __init__(self, value: int | Fraction | None = 0):
        if value is not None:
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"ExtRat takes an int, a Fraction or None, got {value!r}")
            value = Fraction(value)
            if value < 0:
                raise ValueError(f"ExtRat must be non-negative, got {value}")
        object.__setattr__(self, "_frac", value)

    def __setattr__(self, name, value):
        raise AttributeError("ExtRat is immutable")

    @classmethod
    def parse(cls, text: str) -> "ExtRat":
        """Parse "p/q", "n" or "inf" (the serialization used in all files)."""
        if not isinstance(text, str):
            raise SchemaError(f"expected a string rational, got {text!r}")
        text = text.strip()
        if text == "inf":
            return cls(None)
        try:
            frac = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational literal {text!r}: {exc}") from exc
        if frac < 0:
            raise SchemaError(f"negative rational {text!r} not allowed")
        return cls(frac)

    @property
    def is_infinite(self) -> bool:
        return self._frac is None

    @property
    def fraction(self) -> Fraction:
        if self._frac is None:
            raise ValueError("infinity has no finite fraction")
        return self._frac

    def __add__(self, other: "ExtRat") -> "ExtRat":
        if not isinstance(other, ExtRat):
            return NotImplemented
        if self._frac is None or other._frac is None:
            return INF
        return _unchecked(self._frac + other._frac)

    def monus(self, other: "ExtRat") -> "ExtRat":
        """Truncated difference; see the module docstring for conventions."""
        if not isinstance(other, ExtRat):
            raise TypeError(f"monus needs an ExtRat, got {other!r}")
        if other._frac is None:
            return ZERO
        if self._frac is None:
            return INF
        diff = self._frac - other._frac
        return _unchecked(diff) if diff > 0 else ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtRat) and self._frac == other._frac

    def __hash__(self) -> int:
        return hash(self._frac)

    def __le__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        if other._frac is None:
            return True
        if self._frac is None:
            return False
        return self._frac <= other._frac

    def __lt__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        if self._frac is None:
            return False
        if other._frac is None:
            return True
        return self._frac < other._frac

    def __ge__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        return other <= self

    def __gt__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        if other._frac is None:
            return False
        if self._frac is None:
            return True
        return self._frac > other._frac

    def __str__(self) -> str:
        return "inf" if self._frac is None else str(self._frac)

    def __repr__(self) -> str:
        return f"ExtRat({str(self)!r})"


_set_frac = ExtRat._frac.__set__  # the slot's own setter, past __setattr__


def _unchecked(frac: Fraction) -> ExtRat:
    """An ExtRat from a reduced, non-negative Fraction, without re-checking it.

    Sums and truncated differences of ExtRat values are such fractions
    already; only the public constructor needs to convert and check.
    """
    value = object.__new__(ExtRat)
    _set_frac(value, frac)
    return value


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
    denominator = math.lcm(
        *(cell._frac.denominator for row in matrix for cell in row if cell._frac is not None)
    )
    return [
        [
            None if cell._frac is None
            else cell._frac.numerator * (denominator // cell._frac.denominator)
            for cell in row
        ]
        for row in matrix
    ]
