"""The base of skelkit's immutable records.

A record lists its fields in `__slots__` and the defaults of those a caller
may leave out in `_defaults`.  The base derives from that the constructor,
which stores each field through its slot descriptor, and what
`@dataclass(frozen=True)` would generate: equality between records of one
type, hashing, the repr, immutability, pickling and `replace`.  A record
that converts or checks its input ends its own `__init__` in one
`Record.__init__` call; `_unchecked` gives a builder of trusted values
past the constructor.  `dataclasses.fields` and `dataclasses.replace`
accept records too, through a field table `dataclasses` builds on first access.
"""

from copy import copy
from functools import partial
from operator import attrgetter


class _FromTwin:
    """A `dataclasses` attribute read off a bare twin made on first access.

    The twin generates no methods, so `pprint` prints a record by its own repr.
    Kept on the record's class, but not on the base, which every record inherits.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls):
        from dataclasses import make_dataclass

        twin = make_dataclass(cls.__name__, cls._fields, init=False, repr=False, eq=False)
        if cls._fields:
            cls.__dataclass_fields__ = twin.__dataclass_fields__
            cls.__dataclass_params__ = twin.__dataclass_params__
        return getattr(twin, self.name)


class Record:
    """A constructor, equality, hash, repr, immutability and pickling from `__slots__`.

    A `"__dict__"` entry in `__slots__` keeps an instance dict beside the
    fields, for `functools.cached_property`; it is no field.
    """

    __slots__ = ()
    __dataclass_fields__ = _FromTwin()
    __dataclass_params__ = _FromTwin()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields += tuple(n for n in cls.__dict__.get("__slots__", ()) if n != "__dict__")
        key = attrgetter(*cls._fields)  # a lone field comes back bare, so it is wrapped
        cls._key = staticmethod(lambda record: (key(record),)) if len(cls._fields) == 1 else key
        cls._stores = tuple(getattr(cls, n).__set__ for n in cls._fields)

    def __init__(self, *values, **named):
        stores = self._stores
        if named or len(values) != len(stores):
            values = self._bind(values, named)
        i = 0
        for value in values:  # indexing is cheaper than unpacking zip's pairs
            stores[i](self, value)
            i += 1

    @classmethod
    def _unchecked(cls):
        """A builder from every field's value, in order, that converts and checks nothing."""
        new, stores = partial(object.__new__, cls), cls._stores

        def build(*values):
            record, i = new(), 0
            for value in values:
                stores[i](record, value)
                i += 1
            return record

        return build

    @classmethod
    def _bind(cls, values: tuple, named: dict) -> list:
        """Every field's value from positional values, keywords and copied defaults."""
        name, fields = cls.__name__, cls._fields
        if len(values) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields but {len(values)} were given")
        rest = fields[len(values):]
        for key in named:
            if key not in rest:
                raise TypeError(f"{name} {'repeats' if key in fields else 'has no'} field {key!r}")
        missing = [key for key in rest if key not in named and key not in cls._defaults]
        if missing:
            raise TypeError(f"{name} is missing fields {missing}")
        given = dict(zip(fields, values), **named)
        return [given[key] if key in given else copy(cls._defaults[key]) for key in fields]

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

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._key(self)

    def replace(self, **changes):
        """A copy with the given fields changed, built through the checking constructor."""
        return type(self)(**dict(zip(self._fields, self._key(self)), **changes))
