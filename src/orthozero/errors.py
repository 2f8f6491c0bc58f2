"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SingularityError(DomainError):
    """Evaluation requested exactly at a non-removable singularity."""


class DegenerateInputError(ValueError):
    """Input makes the quantity undefined (e.g. T(t) with Q(t) = 0)."""


class NonEvenWeightError(ValueError):
    """Operation is implemented for even weights only."""


class DegenerateSampleError(ValueError):
    """All coefficients of a random sample vanish."""


class BracketError(RuntimeError):
    """Root bracketing failed to enclose the target value."""


class DiscretizationError(RuntimeError):
    """Quadrature discretization hit its node cap before converging."""


class BudgetError(RuntimeError):
    """A refinement budget was exhausted before reaching the tolerance;
    `partial` (the salvaged estimate) and `panels` are None if not known."""

    def __init__(self, message, partial=None, panels=None):
        super().__init__(message)
        self.partial, self.panels = partial, panels
