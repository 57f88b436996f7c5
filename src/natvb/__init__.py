"""Natural-gradient variational Bayes over exponential families.

Core pieces: dual-coordinate exponential families (natural and
expectation parameterizations, Fisher metric, entropy, KL), Gaussian
families with exact sampling, natural-gradient estimators of expected
losses, the convex-combination update in natural coordinates with its
conjugate one-step and mirror-descent readings, and the diagonal-Gaussian
stochastic optimizers VON and IVON next to RMSprop/Adam baselines.
"""

from .blr import (BLRConfig, BLRRun, BLRState, blr_init, blr_run, blr_step,
                  conjugate_posterior, fixed_point_residual,
                  mirror_descent_step_numeric, multiplicative_form_check,
                  newton_recovery_step, vb_objective)
from .deep import (AdamState, IVONState, RMSpropState, TrainRunRecord,
                   TrainTraceRow, VONState, adam_init, adam_step, ivon_init,
                   ivon_step, rmsprop_init, rmsprop_step, train, von_step)
from .errors import (DomainError, FamilyMismatch, LeftDomain, MissingHessian,
                     NonPDHessian, SingularFisher, SolverFailure)
from .expfam import ExpectationParams, ExpFamily, NaturalParams
from .gaussian import DiagGaussian, FullGaussian
from .losses import LossModel, QuadraticLoss, check_derivatives
from .models import (LogisticModel, MLPModel, RidgeModel, make_logistic_data,
                     make_ridge_data, make_spirals_mlp, ridge_exact_posterior,
                     ridge_loss, ridge_natural_coefficients, two_spirals)
from .natgrad import (EstimatorSpec, check_support, estimate_natgrad, expected_loss,
                      natgrad_via_dual)
from .seeding import RNG_ALGORITHM, make_rng

__version__ = "0.1.0"
