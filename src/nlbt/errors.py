"""Exception types shared across the balancing pipeline."""


class BalancingError(Exception):
    """Base class for pipeline failures."""


class HypothesisViolation(BalancingError):
    """The system violates a hypothesis of the balancing theory.

    Raised for a non-Hurwitz linearization, an uncontrollable/unobservable
    linearization (singular Gramian), or repeated/zero Hankel singular values.
    """


class ContractViolation(BalancingError):
    """A computed transform fails its residual contracts.

    Raised when the input-normal/output-diagonal residuals do not contract
    along shrinking rays (or are not finite): the degree solves are
    inconsistent with the energies they were computed from.
    """


class ResonanceError(BalancingError):
    """A degree-k series solve is singular (eigenvalue-sum resonance)."""


class NewtonDivergence(BalancingError):
    """Newton iteration left its region of validity.

    Carries the last iterate and residual so callers can flag a trajectory
    instead of aborting.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class ResourceRefusal(BalancingError):
    """A computation was refused because its memory estimate exceeds the budget."""
