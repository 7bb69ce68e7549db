"""polybubble: verification toolkit for critical polyharmonic equations.

Exact flat-profile algebra, Green functions of the ball and half-space, the
Cayley transform between them, bubble-tree geometry with its weight, a
numerical polyharmonic Pohozaev identity, and a radial shooting solver that
reproduces the blow-up scaling mechanism at desk scale.

Start-up: ``import polybubble`` loads no submodule and no scipy module.  A
public name, or ``polybubble.<submodule>``, imports its submodule on first
use, so ``from polybubble import pohozaev`` loads only what ``pohozaev``
needs.  Only ``polybubble.solver`` (the ``solve`` command) and
``integrate_radial`` load scipy, ``scipy.integrate``; the QMC rules of
``integrate_volume`` and ``integrate_surface`` load ``scipy.stats`` on their
first call.  Every other entry point and command runs on numpy alone: the
Gauss rules are built with numpy.  README.md gives the measured start-up
times.
"""

import importlib

__version__ = "0.1.0"

# Each submodule with the public names it defines.
_EXPORTS = {
    "radial": (
        "RadialFunction", "ExactCheckResult", "bubble_constant",
        "bubble_constant_product", "critical_exponent", "make_bubble",
        "laplacian", "radial_derivative", "power_reduce",
        "check_bubble_identity"),
    "quadrature": (
        "Ball", "HalfBall", "SphereSurface", "BallMinusBalls", "Singularity",
        "QuadratureResult", "AccuracyError", "integrate_radial",
        "integrate_volume", "integrate_surface", "integrate_axisymmetric",
        "sphere_area", "ball_volume"),
    "bubbles": (
        "BubbleSpec", "theta", "positive_bubble", "check_decay"),
    "conformal": (
        "CayleyMap", "HalfSpaceBump", "GaussianXPow",
        "check_distance_identity", "check_norm_invariance",
        "SingularPointError"),
    "green": (
        "psi_ball", "psi_half", "kernel_integral", "green_ball", "green_half",
        "check_conformal_relation"),
    "tree": (
        "TreeConfig", "FamilyLaw", "InfluenceData", "Region",
        "AmbiguousScalesError", "epsilon", "classify", "check_dominance",
        "interaction_sup"),
    "weights": (
        "psi_weight", "eta_sequences", "giraud_verify",
        "convolution_bound_verify", "ratio_table_csv"),
    "pohozaev": (
        "Jet", "MultiPoly", "PolynomialJet", "manufactured_dirichlet",
        "e_operator", "x_grad_laplacian", "pohozaev_lhs", "pohozaev_rhs",
        "pohozaev_residual", "PohozaevReport"),
    "solver": (
        "ProblemParams", "RadialSolution", "BranchPoint", "IntegrationBlowUp",
        "NewtonFailure", "shoot", "newton_solve", "continuation",
        "fit_bubble", "pohozaev_scaling", "synthetic_bubble_branch",
        "branch_csv"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "fields", "jets"}

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
