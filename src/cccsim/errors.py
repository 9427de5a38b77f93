"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed input text: circuit files, unitary specs, angle strings."""


class CapabilityError(RuntimeError):
    """The request is well-formed but exceeds a documented desk-scale cap."""


class InvariantError(RuntimeError):
    """A library invariant failed: a bug or corrupted internal state, not bad input."""
