"""Exception types shared across the package."""


class DomainError(ValueError):
    """Parameters lie outside the family's valid open domain.

    Raised e.g. for a non-positive-definite Gaussian precision, or for
    expectation parameters that no family member realizes.
    """


class FamilyMismatch(ValueError):
    """Two parameter vectors do not belong to the same family."""


class SingularFisher(RuntimeError):
    """A solve against the Fisher matrix gave no finite answer.

    For minimal families the Fisher is positive definite on the open
    domain, so this signals an invalid state rather than a numerical
    nuisance; there is deliberately no pseudo-inverse fallback.
    """


class MissingHessian(NotImplementedError):
    """The loss model does not expose the Hessian needed by an estimator."""


class LeftDomain(RuntimeError):
    """An optimizer update produced parameters outside the valid domain.

    Carries the offending iterate so a caller can implement a retry
    policy (e.g. shrink the learning rate).
    """

    def __init__(self, message, iterate=None, iteration=None):
        super().__init__(message)
        self.iterate = iterate
        self.iteration = iteration


class NonPDHessian(RuntimeError):
    """A Newton step required a positive-definite Hessian and got none."""


class SolverFailure(RuntimeError):
    """An inner numerical solve did not reach its required tolerance."""


class BayesFilterViolation(RuntimeError):
    """A BLR step failed its multiplicative (Bayes-filter) form check.

    log q_{t+1} - (1-rho) log q_t - rho <tilde_lam, T> was not constant
    over the probe grid to within the check's tolerance.
    """


#: failures of a run's per-step certificates: the Bayes-filter check and
#: the residual's inverse-Fisher cross-check
CERTIFICATE_ERRORS = (BayesFilterViolation, SingularFisher, SolverFailure)
