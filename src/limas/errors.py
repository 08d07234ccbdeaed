"""Exception types shared across the toolkit."""


class LimasError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatch(LimasError):
    """Operands have incompatible or unexpected shapes."""


class NotSymmetric(LimasError):
    """A symmetric matrix was required but the input is not symmetric."""


class NoConvergence(LimasError):
    """An eigenvalue iteration failed to converge."""


class NotCommuting(LimasError):
    """The two Laplacians do not commute within tolerance.

    ``commute`` is the failed commutator check, with its residual.
    """

    def __init__(self, commute):
        self.commute = commute
        super().__init__(f"commutator residual {commute.residual:g} exceeds tolerance")


class DegenerateSpectrum(LimasError):
    """Joint diagonalization failed its residual check.

    ``commute`` is the commutator check the Laplacians passed before it.
    """

    def __init__(self, message: str, commute):
        self.commute = commute
        super().__init__(message)


class EmptyRange(LimasError):
    """An extremum was requested over an empty index range."""


class AssumptionViolated(LimasError):
    """A structural assumption required by an analysis step does not hold.

    ``which`` is 1 (commuting Laplacians), 2 (modal controllability),
    3 (proportional physical coupling) or 0 for the standing requirement
    that the communication graph is connected.
    """

    def __init__(self, which: int, detail: str = ""):
        self.which = which
        self.detail = detail
        super().__init__(f"assumption {which} violated: {detail}" if detail
                         else f"assumption {which} violated")


class NotControllable(LimasError):
    """A pair (A, B) fails the controllability rank test."""


class Divergence(LimasError):
    """The modified Riccati solve found no stabilizing solution at this sigma.

    Raised up front when sigma is at or below the critical margin, and when
    Newton at sigma fails from its start gain: its returned gain is
    not stabilizing, a Stein solve is singular, B'PB is not positive, or the
    solve cap is reached. For single-input B a stabilizing solution exists
    at every sigma above the critical margin, so a Divergence raised there
    is a failure of the solver, not a property of the plant: close to the
    margin rounding can defeat Newton. ``iterations`` counts the Stein
    solves spent (0 for the up-front refusal).
    """

    def __init__(self, message: str, iterations: int = 0):
        self.iterations = iterations
        super().__init__(message)


class SynthesisFailed(LimasError):
    """Gain synthesis could not produce a verified stabilizing gain."""


class Overflow(LimasError):
    """A simulated state exceeded the magnitude guard (instability)."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(
            message or f"state overflow at step {step} (closed loop is unstable)")


class NotDeviationInvariant(LimasError):
    """Matrix does not keep the all-ones direction invariant."""


class NotScalar(LimasError):
    """Operation requires a model with scalar (n = 1) agent dynamics."""


class SchemaError(LimasError):
    """A model or gain file does not satisfy the expected schema."""
