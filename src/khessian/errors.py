"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument violates a documented precondition.  When the Newton loop
    raised it (its (u, p) left the box), ``iterations`` holds the loop's
    records so far and, after tuning, ``diagnostics`` tuning's refused
    candidates, as on TuningError; both are None otherwise."""

    diagnostics = None
    iterations = None


class CapacityError(RuntimeError):
    """A combinatorial guard was exceeded (the request is too large); only the
    cone tests raise it, never a solve."""


class ConstructionError(RuntimeError):
    """A seed construction failed; indicates a bug rather than bad input."""


class SolverError(RuntimeError):
    """The linear solve stopped short of its tolerance; ``steps`` counts its
    iterations, one operator application each, and ``contraction`` is their
    largest residual ratio.  The Newton step turns it into a refusal that
    records both, so a solve never raises it."""

    def __init__(self, message, steps=None, contraction=None):
        super().__init__(message)
        self.steps, self.contraction = steps, contraction


class TuningError(RuntimeError):
    """No admissible epsilon was found; ``diagnostics`` holds one record
    {"eps", "m", "reason", "iterations"} per refused candidate, ``m`` the
    grid that refused it: the coarsest grid's refusals first, then the
    solve's grid's, each in the order tried (``iterate.tune_epsilon``)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []
