"""Shared exception types."""


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


def parse_object(what: str, data, build):
    """build(data), with a malformed JSON object reported as `bad <what> object`."""
    try:
        return build(data)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad {what} object: {data!r}") from exc
