"""The base every braidkernel module shares: the error classes and the
record decorator.

It is small and always loaded, so that a command raises and catches the
package's errors, and builds records, without compiling ``words``.
"""

from operator import attrgetter


class BraidkernelError(ValueError):
    """Base class of every error the library raises on bad input."""


class EnumerationError(BraidkernelError):
    """A coset table or permutation action that a query cannot use."""


class Undecided(Exception):
    """A budget or expansion limit ran out before the answer was known;
    the message says which.  The CLI prints it as ``undecided: <message>``."""


def record(cls):
    """Class decorator: a frozen record over the class's annotated fields.

    The contract of ``@dataclass(frozen=True)``, built from closures so
    that no command imports ``dataclasses`` (and with it ``inspect``):
    positional or keyword construction with the class-level defaults,
    then ``__post_init__`` when the class defines one; equality only
    between instances of the same class, on the field tuple; the hash of
    the field tuple; the ``Name(field=value, ...)`` repr; and
    ``AttributeError`` on assignment or deletion.  Instances keep a
    ``__dict__``, so ``__post_init__`` can normalise a field with
    ``object.__setattr__`` and ``functools.cached_property`` works.
    """
    name = cls.__qualname__
    names = tuple(cls.__annotations__)
    arity = len(names)
    positions = tuple(enumerate(names))
    defaults = {field: cls.__dict__[field] for field in names if field in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    # the field tuple: attrgetter returns a tuple for two or more names
    if arity > 1:
        fields = attrgetter(*names)
    else:
        def fields(self):
            return tuple(getattr(self, field) for field in names)
    # object.__setattr__ keeps the instance's inline attribute values, so
    # attribute reads stay as fast as on a dataclass; filling __dict__
    # directly would turn it into a real dict and slow every read
    store = object.__setattr__

    def bind(args, kwargs):
        if len(args) > arity:
            raise TypeError(f"{name}() takes {arity} positional arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for field in names[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in defaults:
                values.append(defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        for field in kwargs:
            raise TypeError(f"{name}() got multiple values for argument {field!r}"
                            if field in names else
                            f"{name}() got an unexpected keyword argument {field!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        for i, field in positions:
            store(self, field, args[i])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        args = ", ".join(f"{field}={value!r}" for field, value in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{name}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
