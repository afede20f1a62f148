"""Error classes mapped to CLI exit codes."""


class SchemaError(ValueError):
    """Malformed or invariant-violating input document (exit code 2)."""


class PreconditionError(ValueError):
    """A mathematical precondition fails, e.g. nonvanishing H^0_B (exit 3)."""


class WindowTooSmall(ValueError):
    """The requested window cannot certify the computation (exit 4)."""


class VerificationError(ValueError):
    """A paired cross-check disagreed (exit 5)."""


class StabilizationError(WindowTooSmall):
    """A dense Cech exponent bound failed to stabilize below the cap, or a
    monomial Cech strand pattern has no finite enumeration (exit 4)."""


class RegionTooLarge(WindowTooSmall, ArithmeticError):
    """A lattice-point region too large to enumerate (exit 4); an ArithmeticError."""
