"""Exact calculus for lattice-valued distance structures.

The layers, bottom up:

* ``rationals`` -- extended non-negative rationals with exact arithmetic.
* ``quantale`` -- table-defined integral involutive quantales with
  exhaustive law checking, and ``LAWVERE``, the name of the extended
  rationals.
* ``diagonals`` -- the quantaloid of diagonals of a quantale: typed homs,
  composition and residuation.  Its kernel is where every quantale's
  arithmetic is realized: from tables for a finite quantale, and by closed
  forms only for the extended rationals.
* ``relations`` / ``categories`` -- matrices over the diagonal homs,
  enriched categories, functors, presheaves.
* ``hull`` -- tight spans, hypercompleteness, injectivity, density.
* ``parmet`` -- partial metric spaces: the extended-rational specialization
  with closed-form arithmetic throughout.
* ``verify`` / ``cli`` -- exhaustive theorem suites and the command line.
"""

from .errors import (
    BoundExceededError,
    EnritchError,
    PreconditionError,
    SchemaError,
    ShapeMismatchError,
    UnsupportedQuantaleError,
)
from .rationals import INF, ZERO, ExtRat

__version__ = "0.1.0"
