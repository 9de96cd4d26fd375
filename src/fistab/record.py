"""One immutable base for every value class of the package.

A subclass names its fields in ``__slots__`` and gets, from that tuple,
what a frozen dataclass would give it: construction by position or by
keyword, refusal of every later change, equality with an instance of
the same class and equal fields, a hash of the field tuple, and the
``Name(field=value, ...)`` repr, which a subclass may shorten (the
oracle's ``DegreeEvaluation`` shows three of its seven fields).  A
subclass with a validating constructor sets its fields with
``object.__setattr__``.  ``copy``, ``deepcopy`` and ``pickle`` restore
the fields the same way, without calling the subclass's constructor.
"""


def _restore(cls, values):
    """An instance of cls with its fields set to values, in slot order."""
    obj = object.__new__(cls)
    for key, value in zip(cls.__slots__, values):
        object.__setattr__(obj, key, value)
    return obj


class Record:
    """Immutable value built from the fields named in ``__slots__``.

    A field holding a dict makes the hash raise ``TypeError``, as it
    does for a frozen dataclass.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self.__slots__
        if len(args) > len(fields):
            raise TypeError(
                f"{name} takes {len(fields)} arguments but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name} got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name} got multiple values for argument {key!r}")
            values[key] = value
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError(f"{name} is missing arguments {missing}")
        for key in fields:
            object.__setattr__(self, key, values[key])

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return _restore, (type(self), self._values())

    def __repr__(self):
        body = ", ".join(f"{key}={getattr(self, key)!r}" for key in self.__slots__)
        return f"{type(self).__name__}({body})"
