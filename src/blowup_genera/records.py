"""The value protocol of the package's record classes.

A record class names its fields in _fields and sets them in its own
__init__ through _set.  Record gives it the rest: a record is immutable
(assigning or deleting a field raises AttributeError), compares equal
only to a record of the same class whose field tuple is equal, hashes as
its field tuple, and prints as Name(field=value, ...).  Hashing raises
TypeError when a field is unhashable, such as a dict.  A slot outside
_fields, such as a memo, takes no part in equality, hashing or repr.
pickle and copy rebuild a record through its class's constructor from
its field tuple, so such a slot starts as the constructor sets it.
"""

from __future__ import annotations


class Record:
    """Base of the record classes: fields from _fields, compared, hashed and printed by value."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"
