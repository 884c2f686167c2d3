"""Exception hierarchy shared by all enritch modules."""


class EnritchError(Exception):
    """Base class for all library errors."""


class SchemaError(EnritchError):
    """Malformed table or file content (bad shape, unknown name, bad literal)."""


class ShapeMismatchError(EnritchError):
    """Relation or functor shapes are incompatible for the requested operation."""


class PreconditionError(EnritchError):
    """An operation's documented precondition does not hold for the input."""


class UnsupportedQuantaleError(EnritchError):
    """Operation needs a finite quantale but was called on an infinite one."""


class BoundExceededError(EnritchError):
    """A brute-force search was refused because its size bound was exceeded."""


class InvariantError(EnritchError):
    """A result the library built broke one of its own guarantees (a bug)."""
