"""Plain value classes, in place of ``dataclasses``.

Importing ``dataclasses`` pulls in ``inspect``, ``dis``, ``ast`` and
``tokenize``, and each decorated class is generated at import time; that
is over a third of the time a CLI call would spend importing the package.
A record names its fields in ``__slots__`` and writes its own ``__init__``;
equality and ``repr`` follow the fields in that order.
"""

from __future__ import annotations


class Record:
    """Mutable fields with value equality; unhashable, as a mutable value should be."""

    __slots__ = ()
    __hash__ = None

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A hashable record whose fields are set once, in ``__init__``, by ``_set``."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __hash__(self):
        return hash(self._values())
