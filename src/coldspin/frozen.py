"""Frozen value classes without per-class code generation.

The package's records (AtomSpec, ScanConfig, FitResult, ...) subclass
Frozen.  The standard library's generator of such classes writes each
class's methods as source text and execs it when the module loads, and
importing it loads inspect, ast, dis and tokenize: ~10-13 ms of every
process plus ~1.2 ms per class, more than a typical command computes.
Frozen's methods are generic and shared by every class.
"""


class Frozen:
    """Base of an immutable value class.

    The fields are the subclass's own annotations, in order, and a class
    attribute gives a field's default.  Fields are passed positionally or by
    keyword; __post_init__ runs once they are bound and may still set
    attributes through object.__setattr__.  == compares the class and the
    field values, hash hashes the field values, so a record with a dict
    field (FitResult) cannot be hashed, and assigning or deleting an
    attribute raises AttributeError.
    """

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        call = f"{type(self).__qualname__}()"
        if len(args) > len(fields):
            raise TypeError(f"{call} takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
            if fields.index(name) < len(args):
                raise TypeError(f"{call} got multiple values for argument {name!r}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        try:
            self.__dict__.update([(name, values[name]) for name in fields])
        except KeyError as exc:
            raise TypeError(f"{call} missing required argument {exc.args[0]!r}") from None
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen instance")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen instance")
