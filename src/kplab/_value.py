"""The one base of the library's value classes (subspaces, flats,
configurations, grid functions, reports).

A subclass lists its slots and writes a short `__init__`; `_Value` derives
equality, hashing, repr and pickling from the slots, as `dataclasses` would
from the fields, but without importing `dataclasses` (which loads `inspect`)
or building methods from source when the package is imported.  A slot is a
field unless its name starts with an underscore; an underscored slot is a
per-instance cache, left out of all four and unset until first filled
(`__dict__` among the slots makes room for `functools.cached_property`).

- Equality is by field tuple within one class; any other type gets
  `NotImplemented`.
- A class declared with `frozen=True` refuses assignment (its `__init__`
  sets the fields with `_set`) and hashes as its field tuple, kept in a
  `_hash` slot when it has one (its `__init__` sets it to None, so that
  the first hash does not pay for an `AttributeError`); any other class
  is unhashable.
- A pickle holds the fields alone, and loading one calls `__init__` again.
"""

from operator import attrgetter

_set = object.__setattr__


def _refuse(self, name, value=None):  # __setattr__ and __delattr__
    raise AttributeError(f"{type(self).__qualname__} is frozen: cannot set or delete {name!r}")


def _field_hash(self):
    return hash(self._values(self))


def _kept_hash(self):
    value = self._hash
    if value is None:
        value = hash(self._values(self))
        _set(self, "_hash", value)
    return value


class _Value:
    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False):
        cls._names = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        get = attrgetter(*cls._names)
        # The field tuple; attrgetter of one name returns the bare value.
        cls._values = staticmethod(get if len(cls._names) > 1 else lambda obj: (get(obj),))
        if frozen:
            cls.__hash__ = _kept_hash if "_hash" in cls.__slots__ else _field_hash
            cls.__setattr__ = cls.__delattr__ = _refuse

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._names, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)
