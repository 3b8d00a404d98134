"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class CapacityError(RuntimeError):
    """A combinatorial guard was exceeded (the request is too large)."""


class ConstructionError(RuntimeError):
    """A seed construction failed; indicates a bug rather than bad input."""


class EllipticityError(RuntimeError):
    """Diagonal dominance of the second-order coefficients failed at a grid point."""

    def __init__(self, message, point=None, index=None, margin=None):
        super().__init__(message)
        self.point = point
        self.index = index
        self.margin = margin


class SolverError(RuntimeError):
    """The linear solve stopped short of its tolerance; ``steps`` counts its
    iterations, one operator application each."""

    def __init__(self, message, steps=None):
        super().__init__(message)
        self.steps = steps


class TuningError(RuntimeError):
    """No admissible epsilon was found; ``diagnostics`` holds one record
    {"eps", "reason", "iterations"} per refused candidate."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []
