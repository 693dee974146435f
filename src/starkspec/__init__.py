"""Spectral data of the Dirichlet perturbed Stark operator on the half-line.

Computes eigenvalues and norming constants by shooting on Volterra-solved
wavefunctions, verifies them against a finite-difference oracle, and
quantifies the first-order asymptotic predictions and their remainder
decay rates.
"""

from .airy import (AiryValues, AiryZero, Envelope, airy_eval, airy_zero,
                   envelope, envelope_margin)
from .asymptotics import (AsymptoticsReport, build_report, decay_rate_fit,
                          kappa_prediction, lambda_prediction)
from .basis import BasisValues, basis_eval, green0
from .errors import (BracketError, DegeneracyError, DomainError,
                     InsufficientDataError, NumericError, StarkSpecError,
                     TruncationError, ValidationError)
from .oracle import (DiscreteOperator, RichardsonResult, extrapolated_spectrum,
                     oracle_spectrum, richardson)
from .potentials import (NormBundle, Potential, alg_decay, blend, bump,
                         exp_decay, make_potential, norms, omega, omega_r,
                         tabulated)
from .spectrum import (EigenRecord, kappa_directional_derivative,
                       lambda_directional_derivative, locate_eigenvalue,
                       norm_sq_psi, oscillation_count, shooting_value)
from .volterra import (Grid, SolutionProfile, Workspace, build_grid,
                       default_grid, solve_psi, solve_sc, solve_theta)

__version__ = "0.1.0"
