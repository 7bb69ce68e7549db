"""polybubble: verification toolkit for critical polyharmonic equations.

Exact flat-profile algebra, Green functions of the ball and half-space, the
Cayley transform between them, bubble-tree geometry with weighted norms, a
numerical polyharmonic Pohozaev identity, and a radial shooting solver that
reproduces the blow-up scaling mechanism at desk scale.
"""

__version__ = "0.1.0"

from .radial import (RadialFunction, ExactCheckResult,
                     bubble_constant, bubble_constant_product,
                     critical_exponent, make_bubble, laplacian,
                     radial_derivative, power_reduce, check_bubble_identity)
from .quadrature import (Ball, HalfBall, SphereSurface, BallMinusBalls,
                         Singularity, QuadratureResult, AccuracyError,
                         integrate_radial, integrate_volume, integrate_surface,
                         integrate_axisymmetric, sphere_area, ball_volume)
from .bubbles import (BubbleSpec, CutoffSpec, TensorSpec, BallChart,
                      theta, positive_bubble, eval_V, bubble_field,
                      bubble_jet, check_decay, kernel_elements, compute_IA,
                      check_sign_condition, UnsupportedDomainError,
                      DivergentIntegralError)
from .conformal import (CayleyMap, HalfSpaceBump, GaussianXPow,
                        check_distance_identity, check_norm_invariance,
                        check_laplacian_conjugation, SingularPointError)
from .green import (GreenEval, psi_ball, psi_half, kernel_integral,
                    green_ball, green_half, check_conformal_relation)
from .tree import (TreeConfig, FamilyLaw, InfluenceData, Region,
                   AmbiguousScalesError, epsilon, classify, check_dominance,
                   interaction_sup, eval_tree, tree_value)
from .weights import (psi_weight, star_norm, starstar_norm, eta_sequences,
                      giraud_verify, convolution_bound_verify,
                      ratio_table_csv)
from .pohozaev import (Jet, MultiPoly, PolynomialJet, manufactured_dirichlet,
                       e_operator, x_grad_laplacian, pohozaev_lhs,
                       pohozaev_rhs, pohozaev_residual, PohozaevReport)
from .solver import (ProblemParams, RadialSolution, BranchPoint,
                     IntegrationBlowUp, NewtonFailure, shoot, newton_solve,
                     continuation, fit_bubble, pohozaev_scaling,
                     synthetic_bubble_branch, branch_csv)
