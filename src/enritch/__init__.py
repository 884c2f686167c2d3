"""Exact calculus for lattice-valued distance structures.

The layers, bottom up:

* ``rationals`` -- extended non-negative rationals with exact arithmetic.
* ``quantale`` -- integral involutive quantales (table-defined or the
  extended rationals) with exhaustive law checking.
* ``diagonals`` -- the quantaloid of diagonals of a quantale: typed homs,
  composition and residuation.
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
