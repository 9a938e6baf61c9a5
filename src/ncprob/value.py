"""The base of the package's immutable value types.

A value type lists its fields in ``__slots__`` and sets them in ``__init__``
with ``object.__setattr__``.  As with a frozen dataclass, an instance equals
only an instance of its own class with equal fields, hashes as the tuple of
its fields, prints as ``Name(field=value, ...)`` and refuses assignment.  The
types hashed or compared in hot loops spell out ``__eq__`` or ``__hash__``.
"""


class Value:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
