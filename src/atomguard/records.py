"""Slotted records: the package's data types, without `dataclasses`.

A record class names its fields, in constructor order, in `__slots__`.
Unless its body defines `__init__`, `Record` derives one from `__slots__`
and an optional class-level `_defaults` mapping: it assigns each argument to
its same-named field, with the bytecode of written-out `self.f = f`
statements, and the trailing fields named in `_defaults` take those
defaults.  A `list`, `dict` or `set` default is rejected, as `dataclasses`
rejects it, so a caller passes each container.  The one record that checks
its arguments, `Production` (its sites align with its body), writes its own.

`Record` compares records of the same class by their fields, prints them as
`Name(field=value, ...)` and leaves them unhashable, as an unfrozen
dataclass does; `HashableRecord` also hashes them by their fields, as a
frozen dataclass does.  Neither forbids assignment.  A record's `_fields`
are its `__slots__`.
"""

from __future__ import annotations

from operator import attrgetter
from types import CodeType, FunctionType

__all__ = ["Record", "HashableRecord"]

# number of fields -> the code of `def __init__(self, f0, f1, ...)` assigning
# each argument to the same-named attribute.  A record's constructor is that
# code with its fields' names in place of f0, f1, ..., as `namedtuple`
# compiles its `__new__` but with one compile per length, not per class: a
# compile costs about ten renames, and it is paid at every start-up.
_TEMPLATES: dict[int, CodeType] = {}


def _getter(fields: tuple[str, ...]):
    """A function from a record to the tuple of its fields' values."""
    if len(fields) == 1:
        get = attrgetter(fields[0])
        return lambda record: (get(record),)
    return attrgetter(*fields) if fields else lambda record: ()


def _init(cls: type) -> FunctionType:
    """`cls.__init__`, assigning each argument to its field in order; the
    trailing fields named in `cls._defaults` are optional."""
    fields = cls._fields
    defaults = cls.__dict__.get("_defaults", {})
    trailing = fields[len(fields) - len(defaults):]
    if set(defaults) != set(trailing):
        raise TypeError(f"{cls.__qualname__}._defaults must name the last fields of __slots__")
    for name, value in defaults.items():
        if isinstance(value, (list, dict, set)):
            raise ValueError(f"mutable default {type(value)} for field {name} is not allowed")
    template = _TEMPLATES.get(len(fields))
    if template is None:
        names = [f"f{i}" for i in range(len(fields))]
        source = f"def __init__(self, {', '.join(names)}):\n"
        source += "".join([f"    self.{name} = {name}\n" for name in names])
        namespace: dict = {}
        exec(source, namespace)
        template = _TEMPLATES[len(fields)] = namespace["__init__"].__code__
    # the template's names f0, f1, ... become the fields, as arguments and
    # as attributes
    attributes = tuple([fields[int(name[1:])] for name in template.co_names])
    code = template.replace(co_varnames=("self", *fields), co_names=attributes)
    init = FunctionType(code, {}, "__init__", tuple([defaults[name] for name in trailing]))
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__slots__
        cls._values = staticmethod(_getter(cls._fields))
        if cls._fields and "__init__" not in cls.__dict__:
            cls.__init__ = _init(cls)

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
