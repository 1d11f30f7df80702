"""Shared exception types."""


class VerificationError(RuntimeError):
    """An internal cross-check failed: two independent computations disagree,
    or a structural invariant that must hold mathematically was violated.

    This is never a usage error; it signals either a bug or a genuinely
    false claim, and it always carries the counterexample in its message.
    """


class UsageError(ValueError):
    """An input from outside the program is malformed or out of range.

    Raised only by the input guards, which run before any work starts; the
    CLI exits 2 on it, and 1 on any other ValueError, which is a fault.
    """
