"""Slotted records: the package's data types, without `dataclasses`.

A record class names its fields, in constructor order, in `__slots__` and
writes its own `__init__`.  `Record` compares records of the same class by
their fields, prints them as `Name(field=value, ...)` and leaves them
unhashable, as an unfrozen dataclass does; `HashableRecord` also hashes
them by their fields, as a frozen dataclass does.  Neither forbids
assignment.  A record's `_fields` are its `__slots__`.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record", "HashableRecord"]


def _getter(fields: tuple[str, ...]):
    """A function from a record to the tuple of its fields' values."""
    if len(fields) == 1:
        get = attrgetter(fields[0])
        return lambda record: (get(record),)
    return attrgetter(*fields) if fields else lambda record: ()


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__slots__
        cls._values = staticmethod(_getter(cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"


class HashableRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))
