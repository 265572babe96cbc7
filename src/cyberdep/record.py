"""The immutable base of the records that validate at construction.

A subclass names its fields in ``__slots__``, in ``__init__`` order; slots
whose names start with ``_`` hold state derived from the fields, which
equality, hashing and repr ignore. ``__init__`` validates, then stores each
slot with ``store``; after that no attribute can be set or deleted. Records
read on the noisy-OR query path are slot classes rather than named tuples
because a slot read is the cheaper of the two.
"""

from types import MappingProxyType

#: Sets a slot from ``__init__``, past ``Record.__setattr__``.
store = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = cls.__dict__.get("__slots__", ())  # a subclass's slots add to its parent's fields
        own = (own,) if isinstance(own, str) else own  # a string names one slot, as type() reads it
        cls._fields = cls._fields + tuple(name for name in own if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, so they validate too
        # pickle refuses a read-only mapping view, so a view travels as a plain dict
        return type(self), tuple(dict(v) if type(v) is MappingProxyType else v
                                 for v in self._values())

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and validated by ``__init__``."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})
