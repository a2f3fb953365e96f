"""The names every part of catspan shares: the immutable record base, the
enumeration budget, the metric tolerance default, the variance constants,
and ``InputError``, a usage error of the command line, with two subclasses.

This module imports nothing from catspan, so that a command loads only the
modules it runs: the metric subcommands need ``Frozen`` and the budget but
none of the category modules. ``fincat`` and ``setfunc`` re-export these
names, and ``tightspan`` re-exports ``DEFAULT_TOL``.
"""

from __future__ import annotations

from operator import index

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"

DEFAULT_BUDGET = 10_000_000
# The absolute tolerance of metric validation, before validate_metric raises
# it to the float spacing of the largest distance.
DEFAULT_TOL = 1e-9


class InputError(ValueError):
    """Arguments that do not fit the operation given them, such as functors
    over different bases; the library raises it, the command line exits 2."""


class StructuralError(InputError):
    """A category description that does not resolve (duplicate labels,
    dangling ids, missing identity entries), as opposed to one that
    resolves but breaks a category law."""


class UnknownObjectError(InputError):
    pass


class BudgetExceeded(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"enumeration budget exceeded (cap {cap} node expansions)")
        self.cap = cap


class Budget:
    """Mutable node-expansion counter shared across nested enumerations."""

    __slots__ = ("cap", "used")

    def __init__(self, cap: int = DEFAULT_BUDGET):
        try:
            cap = index(cap)
        except TypeError:
            raise InputError(f"budget cap must be an integer, got {type(cap).__name__}") from None
        if cap <= 0:
            raise InputError("budget cap must be positive")
        self.cap = cap
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.cap:
            raise BudgetExceeded(self.cap)

    @classmethod
    def coerce(cls, budget: "Budget | None") -> "Budget":
        """``budget``, or a fresh default one for ``None``."""
        return cls() if budget is None else budget


class Frozen:
    """Base of the library's immutable records. A subclass names its fields
    in ``_fields``, in constructor order. The constructor takes them by
    position or keyword, like a written-out signature, and sets each one
    once through ``object.__setattr__``; a record whose constructor checks
    or converts its arguments writes its own ``__init__``. After that,
    assigning or deleting an attribute raises AttributeError. Two records
    are equal when they are of the same class and their fields are equal,
    and a record hashes as the tuple of its fields. A record compared by
    identity restores ``object.__eq__`` and ``object.__hash__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        for field in fields[len(args):]:
            if field not in kwargs:
                raise TypeError(f"{name}() missing argument {field!r}")
            object.__setattr__(self, field, kwargs.pop(field))
        if kwargs:  # left over: a field also given by position, or no field at all
            field = next(iter(kwargs))
            problem = "multiple values for" if field in fields else "an unexpected keyword"
            raise TypeError(f"{name}() got {problem} argument {field!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        """Copies and unpickled records are rebuilt through the constructor,
        since restoring their fields by assignment would raise."""
        return type(self), self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
