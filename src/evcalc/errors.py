"""Shared exception types and checks, the JSON object parser and the value base class."""

from operator import attrgetter


class ValidationError(ValueError):
    """An input violates a representation invariant."""


class TotalConflictError(ValueError):
    """Dempster combination is undefined: the operands are in total conflict."""

    def __init__(self, first, second):
        super().__init__(f"total conflict between {first!r} and {second!r}")
        self.first = first
        self.second = second


class InfiniteEvidenceError(ValueError):
    """The operation requires finite evidence."""


class ZeroEvidenceError(ValueError):
    """The operation is undefined before any evidence has been observed."""


#: What float() and int() raise for a value that is not a real number: None
#: or a list, a string such as "x", an int too large for a float.
_NOT_REAL = (TypeError, ValueError, OverflowError)


def _shown(value) -> str:
    """repr(value) for an error message, or a short stand-in where repr itself
    raises: an int past the interpreter's digit limit for str(), a container
    holding one, or a container nested past the recursion limit."""
    try:
        return repr(value)
    except (ValueError, RecursionError):
        return f"<{type(value).__name__} too large to show>"


def _is_whole(x) -> bool:
    """x == int(x), where nan, inf and non-numbers such as None (int() raises) are not whole."""
    try:
        return int(x) == x
    except _NOT_REAL:
        return False


def _real(value, name: str) -> float:
    """float(value), where a value float() rejects (None, "x", a list, 10**400) is a ValidationError naming the field.

    A constructor whose bare float() calls raise calls this on each field in
    order, so that the first bad field is the one named.
    """
    try:
        return float(value)
    except _NOT_REAL:
        raise ValidationError(f"{name} must be a real number, got {_shown(value)}") from None


def _number(value) -> float:
    """float(value) of a number read from JSON, where a JSON true or false is none (TypeError)."""
    if value.__class__ is bool:
        raise TypeError(f"a boolean is not a number: {value!r}")
    return float(value)


def parse_object(what: str, data, build):
    """build(data), with a malformed JSON object reported as `bad <what> object`."""
    try:
        return build(data)
    except ValidationError:
        raise
    except (KeyError, *_NOT_REAL) as exc:
        raise ValidationError(f"bad {what} object: {_shown(data)}") from exc


class _Value:
    """Base of the immutable value types.

    A subclass names its fields in _fields and sets each one once in its
    __init__, through self.__dict__.  Equality (within one class only), hash,
    repr and to_dict go over those fields in that order, and assigning or
    deleting an attribute raises AttributeError.  to_dict leaves out a field
    that is None; FrequencyInterval, ConflictReport and LimitReport override
    it, and the other values (StreamSpec, UnitWeights, Trajectory) keep it.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # the field values in order (a lone field's value bare)
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def to_dict(self) -> dict:
        fields = self.__dict__
        return {name: fields[name] for name in self._fields if fields[name] is not None}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
