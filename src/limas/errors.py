"""Exception types shared across the toolkit."""


class LimasError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatch(LimasError):
    """Operands have incompatible or unexpected shapes."""


class NoConvergence(LimasError):
    """An eigenvalue iteration failed to converge."""


class NotCommuting(LimasError):
    """The two Laplacians do not commute within tolerance.

    Raised by ``LimasModel.joint_spectrum`` when the model's commute_check
    fails, as "Laplacians do not commute (residual ...)"; that check, with
    its residual, is ``model.commute_check``.
    """


class DegenerateSpectrum(LimasError):
    """Joint diagonalization failed its residual check."""


class AssumptionViolated(LimasError):
    """A structural assumption required by an analysis step does not hold.

    ``which`` is 2 (modal controllability), 3 (proportional physical
    coupling) or 0 (a connected communication graph). Assumption 1,
    commuting Laplacians, is not raised here: :class:`NotCommuting` is.
    """

    def __init__(self, which: int, detail: str):
        self.which = which
        self.detail = detail
        super().__init__(f"assumption {which} violated: {detail}")


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
    """Raised by ``limas simulate`` when ``analyze`` certifies no gain."""


class Overflow(LimasError):
    """A simulated entry is nan or past max / (N n), where a reported norm could overflow."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"state overflow at step {step}")


class NotDeviationInvariant(LimasError):
    """Matrix does not keep the all-ones direction invariant."""


class NotScalar(LimasError):
    """Operation requires a model with scalar (n = 1) agent dynamics."""


class SchemaError(LimasError):
    """A model or gain file does not satisfy the expected schema."""
