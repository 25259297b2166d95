"""Nonnegative cosine polynomials, mollifier machinery, and zeta-side
numerics for zero-free-region constants."""

__version__ = "0.1.0"

from .asymptotics import (
    RegionRow,
    compute_C,
    compute_M,
    eta_of,
    lambda_of,
    region_table,
)
from .mollifier import (
    MollifierShape,
    F0_closed,
    F0_eval,
    F_eval,
    W_eval,
    g_eval,
    negWprime0_closed,
    solve_theta,
    w0_closed,
    w_eval,
)
from .optimizer import OptimizationResult, evaluate_candidate, optimize
from .trigpoly import (
    Certificate,
    CosinePolynomial,
    ProductForm,
    Violation,
    eval_poly,
    expand_product,
    power_to_cosine,
    verify_nonneg,
)
from .zetanum import (
    VerificationReport,
    applied_trig_sum,
    lemma_check,
    lemma_lhs,
    lemma_rhs,
    midpoint_bound_check,
    neg_zeta_logderiv,
    zeta_em,
)
