"""The base of skelkit's immutable records.

A record lists its fields in `__slots__` and sets them in its own
`__init__` through `object.__setattr__`, after its checks.  The base
derives from that list what `@dataclass(frozen=True)` would generate:
equality between records of one type, hashing, the repr, immutability,
pickling and `replace`, with no generated source.  `dataclasses.fields`
and `dataclasses.replace` accept records too: their field table is built
by `dataclasses` on first access, so only a caller that asks imports it.
"""

from operator import attrgetter

_set = object.__setattr__  # how a record's __init__ stores a field


class _FieldTable:
    """`__dataclass_fields__`, read off a bare twin made on first access and kept.

    The twin generates no methods: only its field table is read, and a
    fresh import would pay for generated code again.
    """

    def __get__(self, obj, cls):
        from dataclasses import make_dataclass

        twin = make_dataclass(cls.__name__, cls._fields, init=False, repr=False, eq=False)
        table = twin.__dataclass_fields__
        setattr(cls, "__dataclass_fields__", table)
        return table


class Record:
    """Equality, hash, repr, immutability and pickling from the fields in `__slots__`.

    A `"__dict__"` entry in `__slots__` keeps an instance dict beside the
    fields, for `functools.cached_property`; it is no field.
    """

    __slots__ = ()
    __dataclass_fields__ = _FieldTable()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(n for n in cls.__dict__.get("__slots__", ()) if n != "__dict__")
        cls._key = attrgetter(*cls._fields)  # a lone field comes back bare

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with the given fields changed, built through the checking constructor."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
