"""The one base of the program's immutable values.

A record keeps its fields in `__slots__`, has no instance dictionary,
and is written once, by `__init__`, through the slot descriptors'
setters; every later write or delete raises AttributeError, the base
class of the FrozenInstanceError a frozen dataclass raises.  `==`,
`hash`, `repr` and `__reduce__` (so `copy`, `deepcopy` and `pickle`) are
read off the slot list and behave as a frozen dataclass's do: equal when
of one class with equal fields, hashed from the tuple of the fields,
printed as `Name(field=value, ...)`, rebuilt by calling the class on its
fields.  Slots named in the class keyword `derived` (a cache, or a value
computed from the fields) come last and are left out of all four.

The generic `__init__` takes the fields in slot order, by position or by
name, with the defaults in the class's `_defaults`, and writes them
through setters bound once per class.  A record that checks its fields
or computes a derived one has an `__init__` of its own that ends in this
one; one built in an inner loop writes its slots through setters bound
once at module level, as the term nodes do.  No code is generated, so
making a record class costs what making any slotted class costs.
"""


class Record:
    __slots__ = ()
    # the fields ==, hash, repr and __reduce__ read, in slot order
    _fields = ()
    # the defaults the generic __init__ fills in, by field
    _defaults = {}

    def __init_subclass__(cls, derived=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(n for n in cls.__slots__ if n not in derived)
        # the slot descriptors' setters, in slot order
        cls._setters = tuple(getattr(cls, n).__set__ for n in cls.__slots__)

    def __init__(self, *values, **named):
        cls = self.__class__
        if named or len(values) != len(cls.__slots__):
            values = cls._bind(values, named)
        for set_field, value in zip(cls._setters, values):
            set_field(self, value)

    @classmethod
    def _bind(cls, values: tuple, named: dict) -> tuple:
        """The fields in slot order, from the given ones and the defaults."""
        slots = cls.__slots__
        if len(values) > len(slots):
            raise TypeError(f"{cls.__name__} takes {len(slots)} fields, "
                            f"got {len(values)}")
        for name in slots[len(values):]:
            if name in named:
                values += (named.pop(name),)
            elif name in cls._defaults:
                values += (cls._defaults[name],)
            else:
                raise TypeError(f"{cls.__name__} misses field {name!r}")
        if named:
            raise TypeError(f"{cls.__name__} takes no field {min(named)!r} "
                            "here")
        return values

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
