"""Multistart derivative-free search for the product form maximizing M.

Each start runs Nelder-Mead (reflection 1, expansion 2, contraction 0.5,
shrink 0.5) over the root offsets in log coordinates.  Candidates whose
expansion fails the feasibility checks (b0, b1 positive, b1/b0 inside the
shape-equation window) score minus infinity.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .asymptotics import M_from_theta
from .errors import NoFeasiblePointError
from .mollifier import RATIO_WINDOW, solve_theta
from .trigpoly import Certificate, CosinePolynomial, ProductForm, expand_product, verify_nonneg

ROOT_BOX = (0.01, 3.0)
_PENALTY = 1e9


@dataclass(frozen=True)
class Rejection:
    reason: str


@dataclass(frozen=True)
class CandidateEval:
    poly: CosinePolynomial
    theta: float
    M: float


@dataclass(frozen=True)
class OptimizationResult:
    best_form: ProductForm
    best_poly: CosinePolynomial
    theta: float
    M: float
    starts_used: int
    trace: Tuple[Tuple[int, float], ...]
    notes: Tuple[str, ...] = ()  # always empty; kept for the output schema


def evaluate_candidate(form: ProductForm) -> Union[CandidateEval, Rejection]:
    """Expand, run the feasibility checks, and compute M for one form.

    Nonnegativity is automatic from the product structure, so rejections
    can only come from the coefficient checks.
    """
    poly = expand_product(form)
    b = poly.coeffs
    if b[0] <= 0:
        return Rejection("b0_not_positive")
    if b[1] <= 0:
        return Rejection("b1_not_positive")
    ratio = b[1] / b[0]
    if not (RATIO_WINDOW[0] < ratio < RATIO_WINDOW[1]):
        return Rejection("ratio_outside_window")
    theta = solve_theta(b[0], b[1])
    return CandidateEval(poly=poly, theta=theta, M=M_from_theta(b, theta))


def _objective(x: np.ndarray, half: bool) -> float:
    roots = tuple(np.exp(x))
    if any(not (ROOT_BOX[0] * 0.5 <= a <= ROOT_BOX[1] * 2.0) for a in roots):
        return _PENALTY
    result = evaluate_candidate(ProductForm(1.0, half, roots))
    if isinstance(result, Rejection):
        return _PENALTY
    return -result.M


def optimize(
    degree: int,
    half_angle_factor: bool,
    starts: int = 64,
    seed: int = 0,
    tol: float = 1e-10,
) -> OptimizationResult:
    """Maximize M over product forms of the given degree.

    Deterministic for a fixed (degree, half_angle_factor, starts, seed,
    tol); increasing starts only appends to the same start sequence.
    """
    e = 1 if half_angle_factor else 0
    if degree < 2 or degree > 32:
        raise ValueError("degree must be in 2..32")
    if (degree - e) % 2 != 0:
        raise ValueError(
            f"degree {degree} is inconsistent with half_angle_factor={half_angle_factor}"
        )
    m = (degree - e) // 2
    if m < 1:
        raise ValueError("need at least one squared factor")
    if starts < 1:
        raise ValueError("starts must be >= 1")

    # scipy is imported here so that importing the package does not pay for it
    from scipy.optimize import minimize
    from scipy.stats import qmc

    lo, hi = math.log(ROOT_BOX[0]), math.log(ROOT_BOX[1])
    sampler = qmc.Halton(d=m, scramble=True, seed=seed)
    points = lo + (hi - lo) * sampler.random(starts)

    best: Optional[CandidateEval] = None
    best_roots: Optional[Tuple[float, ...]] = None
    trace: List[Tuple[int, float]] = []
    for idx, x0 in enumerate(points):
        if _objective(x0, half_angle_factor) >= _PENALTY:
            continue
        res = minimize(
            _objective,
            x0,
            args=(half_angle_factor,),
            method="Nelder-Mead",
            options={"xatol": tol, "fatol": 1e-15, "maxiter": 4000},
        )
        cand_roots = tuple(sorted(float(a) for a in np.exp(res.x)))
        cand = evaluate_candidate(ProductForm(1.0, half_angle_factor, cand_roots))
        if isinstance(cand, Rejection):
            continue
        better = best is None or cand.M > best.M or (
            cand.M == best.M and cand_roots < best_roots
        )
        if better:
            best, best_roots = cand, cand_roots
        trace.append((idx, best.M))

    if best is None:
        raise NoFeasiblePointError("all starts were rejected")

    cert = verify_nonneg(best.poly)
    if not isinstance(cert, Certificate):
        raise NoFeasiblePointError("best candidate failed the nonnegativity check")

    return OptimizationResult(
        best_form=ProductForm(1.0, half_angle_factor, best_roots),
        best_poly=best.poly,
        theta=best.theta,
        M=best.M,
        starts_used=starts,
        trace=tuple(trace),
    )
