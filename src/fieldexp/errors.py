"""Exception types shared across the package."""


class NumericFailure(RuntimeError):
    """A solver failed to reach its required residual.

    Carries the residual, when there is one, so callers can report
    diagnostics instead of a bare stack trace.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual

