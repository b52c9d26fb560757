"""Exceptions raised by the relational substrate.

The relational layer is deliberately strict: schema violations, duplicate
primary keys and unknown attributes raise immediately rather than silently
corrupting a relation that is about to be watermarked.
"""

from __future__ import annotations


class RelationalError(Exception):
    """Base class for all relational-substrate errors."""

    def at(self, origin: str, number: int) -> "RelationalError":
        """Name where the violation was read: ``origin`` (a file) and its
        1-based data-row ``number``, kept as attributes and prefixed to
        the message."""
        self.origin = str(origin)
        self.row_number = number
        self.args = (f"{self.origin}: row {number}: {self.args[0]}",)
        return self

    def __reduce__(self):
        # The default ``cls(*args)`` would re-run the subclasses'
        # message-building constructors on the finished message; parallel
        # workers raise these across the process boundary, so restore the
        # message and attributes as they are.
        return (_restore, (type(self), self.args, self.__dict__))


def _restore(cls, args, state):
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(state)
    return error


class SchemaError(RelationalError):
    """A schema is malformed (duplicate names, missing primary key, ...)."""


class UnknownAttributeError(RelationalError):
    """An operation referenced an attribute not present in the schema."""

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        self.name = name
        self.available = tuple(available)
        msg = f"unknown attribute {name!r}"
        if available:
            msg += f" (schema has: {', '.join(available)})"
        super().__init__(msg)


class DuplicateKeyError(RelationalError):
    """An insert would create a second tuple with an existing primary key."""

    def __init__(self, key):
        self.key = key
        super().__init__(f"duplicate primary key value: {key!r}")


class MissingKeyError(RelationalError):
    """A lookup referenced a primary key value not present in the table."""

    def __init__(self, key):
        self.key = key
        super().__init__(f"no tuple with primary key value: {key!r}")


class DomainError(RelationalError):
    """A value was outside the declared categorical domain of an attribute."""

    def __init__(self, value, attribute: str = ""):
        self.value = value
        self.attribute = attribute
        where = f" for attribute {attribute!r}" if attribute else ""
        super().__init__(f"value {value!r} is outside the categorical domain{where}")


class TypeMismatchError(RelationalError):
    """A value did not match the declared type of its attribute."""

    def __init__(self, value, expected: str, attribute: str = ""):
        self.value = value
        self.expected = expected
        self.attribute = attribute
        where = f" for attribute {attribute!r}" if attribute else ""
        super().__init__(
            f"value {value!r} does not match declared type {expected}{where}"
        )
