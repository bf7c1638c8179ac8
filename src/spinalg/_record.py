"""Frozen value records compared, hashed, printed and copied by their fields.

A record class lists its fields in `_fields` and in its own `__slots__`,
and its `__init__` sets each field with object.__setattr__.  The methods
here read the fields in `_fields` order, like a frozen dataclass: two
records are equal when they have the same class and equal fields, the
hash is that of the field tuple, and repr shows `Class(name=value, ...)`.
Copying and pickling go through `__reduce__`, which calls the class again
with the field values, so the constructor validates (and interns) copies
too.  Assigning or deleting an attribute raises AttributeError.

An Interned record is one object per field tuple, so equality and hashing
are identity.  Its `__new__` refuses a bool or float for an int before the
table is read (True and 1.0 hash like 1, so they would find the int's
record), then returns `cls._intern(*fields)`.  Checks that cost more may run
only when the table has no record yet: FieldConfig tests primality once per
(p, r).
"""
from __future__ import annotations


class Record:
    """Base of the package's frozen value records."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Interned(Record):
    """Base of the records kept as one object per field tuple, in a table per subclass."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init_subclass__(cls):
        cls._table = {}

    @classmethod
    def _intern(cls, *values):
        """The record stored for these field values, made and stored on first use."""
        record = cls._table.get(values)
        if record is None:
            record = object.__new__(cls)
            for name, value in zip(cls._fields, values):
                object.__setattr__(record, name, value)
            record = cls._table.setdefault(values, record)  # a record another thread stored first wins
        return record
