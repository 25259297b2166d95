"""Multistart derivative-free search for the product form maximizing M.

The starts are the points of a scrambled Halton sequence (Owen, "A
randomized Halton algorithm in R", arXiv:1706.02808) in the box of log
root offsets.  Each start runs Nelder-Mead (Nelder and Mead, Comput. J. 7,
1965; reflection 1, expansion 2, contraction 0.5, shrink 0.5) over the root
offsets in log coordinates, for at most MAX_ITER iterations.  Each point
is scored from b0, b1 and the coefficient sums, read off the power-basis
product without the full cosine expansion; points that fail the feasibility
checks (b0, b1 positive, b1/b0 inside the shape-equation window) score a
penalty.  The simplex's best value is the score of its start; only the
winning start is expanded, by evaluate_candidate, for the reported
polynomial, theta and M.  Both algorithms are written here in numpy, and
the tests check them point for point against reference implementations.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple, Union

import numpy as np

from .asymptotics import M_from_sums, M_from_theta
from .errors import NoFeasiblePointError
from .mollifier import RATIO_WINDOW, solve_theta
from .trigpoly import (
    Certificate,
    CosinePolynomial,
    ProductForm,
    _cosine_sums,
    _power_product,
    expand_product,
    verify_nonneg,
)

ROOT_BOX = (0.01, 3.0)
MAX_ITER = 4000
_PENALTY = 1e9
_FATOL = 1e-15

# Nelder-Mead reflection, expansion, contraction and shrink coefficients
_RHO, _CHI, _PSI, _SIGMA = 1.0, 2.0, 0.5, 0.5
# initial simplex: each coordinate in turn scaled by 1.05, or set to 0.00025 if 0
_NONZERO_STEP, _ZERO_STEP = 0.05, 0.00025


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
    notes: Tuple[str, ...] = ()


def evaluate_candidate(form: ProductForm) -> Union[CandidateEval, Rejection]:
    """Expand, run the feasibility checks, and compute M for one form.

    Nonnegativity is automatic from the product structure, so rejections
    can only come from the coefficient checks.
    """
    poly = expand_product(form)
    b = poly.coeffs
    reason = _infeasibility(b[0], b[1])
    if reason is not None:
        return Rejection(reason)
    theta = solve_theta(b[0], b[1])
    return CandidateEval(poly=poly, theta=theta, M=M_from_theta(b, theta))


def _infeasibility(b0: float, b1: float) -> Optional[str]:
    """The first feasibility check that (b0, b1) fails, or None."""
    if b0 <= 0:
        return "b0_not_positive"
    if b1 <= 0:
        return "b1_not_positive"
    if not (RATIO_WINDOW[0] < b1 / b0 < RATIO_WINDOW[1]):
        return "ratio_outside_window"
    return None


def _objective(x: np.ndarray, half: bool) -> float:
    """-M of the unit-scale product form with log root offsets x, or _PENALTY.

    Offsets outside twice the root box, and forms that fail the feasibility
    checks of evaluate_candidate, score _PENALTY.  M needs only b0, b1 and
    the coefficient sums, which _cosine_sums reads off the power-basis
    product, so no cosine expansion and no dataclass is built.  The box
    check keeps every offset finite and positive.
    """
    roots = np.exp(x).tolist()
    if any(not (ROOT_BOX[0] * 0.5 <= a <= ROOT_BOX[1] * 2.0) for a in roots):
        return _PENALTY
    b0, b1, s_tail, s_all = _cosine_sums(_power_product(half, roots))
    if _infeasibility(b0, b1) is not None:
        return _PENALTY
    return -M_from_sums(b0, s_tail, s_all, solve_theta(b0, b1))


def _first_primes(count: int) -> List[int]:
    primes: List[int] = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


def _scrambled_halton(dim: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the dim-dimensional scrambled Halton sequence.

    Coordinate k is the radical inverse of the point index in the k-th
    prime base, with digit j replaced by perm_j[digit]: one random
    permutation of the digits per place j with base**-(j+1) above 2**-54,
    drawn base by base from default_rng(seed).
    """
    rng = np.random.default_rng(seed)
    points = np.zeros((n, dim))
    for k, base in enumerate(_first_primes(dim)):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        quotient = np.arange(n)
        b2r = 1.0 / base
        for perm in perms:
            rng.shuffle(perm)
            quotient, digit = np.divmod(quotient, base)
            points[:, k] += perm[digit] * b2r
            b2r /= base
    return points


def _nelder_mead(f, x0: np.ndarray, f0: float, xatol: float) -> Tuple[np.ndarray, float, bool]:
    """Minimize f from x0, where f0 = f(x0) is already known; return the
    best vertex, its value and whether it converged.

    It stops when every vertex is within xatol of the best one in each
    coordinate and every value within _FATOL of the best value, or after
    MAX_ITER iterations.  Ties in the values are frequent on the flat top
    of M, so the simplex is ordered with np.argsort, whose order among
    ties the results depend on.
    """
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + _NONZERO_STEP) * y[k] if y[k] != 0 else _ZERO_STEP
        sim[k + 1] = y
    fsim = np.array([f0] + [f(v) for v in sim[1:]])
    order = np.argsort(fsim)
    sim, fsim = sim[order], fsim[order]

    iterations = 1
    while iterations < MAX_ITER:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= _FATOL):
            return sim[0], fsim[0], True
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + _RHO) * xbar - _RHO * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (1 - _PSI) * xbar + _PSI * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], fsim[0], False


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
    A start that stops at the MAX_ITER cap instead of reaching tol still
    counts, and is reported in notes.
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
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")

    lo, hi = math.log(ROOT_BOX[0]), math.log(ROOT_BOX[1])
    points = lo + (hi - lo) * _scrambled_halton(m, starts, seed)
    objective = partial(_objective, half=half_angle_factor)

    best_value = _PENALTY
    best_roots: Optional[Tuple[float, ...]] = None
    trace: List[Tuple[int, float]] = []
    capped = 0
    for idx, x0 in enumerate(points):
        f0 = objective(x0)
        if f0 >= _PENALTY:
            continue
        x, value, converged = _nelder_mead(objective, x0, f0, tol)
        capped += not converged
        roots = tuple(sorted(float(a) for a in np.exp(x)))
        if value < best_value or (value == best_value and roots < best_roots):
            best_value, best_roots = float(value), roots
        trace.append((idx, -best_value))

    if best_roots is None:
        raise NoFeasiblePointError("all starts were rejected")

    best_form = ProductForm(1.0, half_angle_factor, best_roots)
    best = evaluate_candidate(best_form)
    if isinstance(best, Rejection):
        raise NoFeasiblePointError(f"best candidate was rejected: {best.reason}")
    cert = verify_nonneg(best.poly)
    if not isinstance(cert, Certificate):
        raise NoFeasiblePointError("best candidate failed the nonnegativity check")

    return OptimizationResult(
        best_form=best_form,
        best_poly=best.poly,
        theta=best.theta,
        M=best.M,
        starts_used=starts,
        trace=tuple(trace),
        notes=(f"{capped} of {starts} starts stopped at the iteration cap",) if capped else (),
    )
