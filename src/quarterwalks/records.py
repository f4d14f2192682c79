"""Plain value records.

A record names its fields in ``__slots__``, in the order of its
constructor's parameters, and its ``__init__`` stores them with
``_init``.  Two records are equal when they are of the same class and
their fields are equal in order.  A ``Record`` is mutable and so
unhashable; a ``FrozenRecord`` refuses assignment after ``__init__`` and
hashes by its fields.  Both copy and pickle by calling the constructor
again on the fields, so validation in ``__init__`` runs again.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = zip(self.__slots__, self._values())
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __reduce__(self):
        return self.__class__, self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")
