"""Multistart derivative-free search for the product form maximizing M.

The starts are the points of a scrambled Halton sequence (Owen, "A
randomized Halton algorithm in R", arXiv:1706.02808) in the box of log
root offsets.  Each start runs Nelder-Mead (Nelder and Mead, Comput. J. 7,
1965; reflection 1, expansion 2, contraction 0.5, shrink 0.5) over the root
offsets in log coordinates, for at most MAX_ITER iterations.  Each point
is scored from b0, b1 and the coefficient sums, read off the power-basis
product without the full cosine expansion; a point scores a penalty exactly
where solve_theta refuses its b0 and b1.  The simplex's best value is the
score of its start; only the winning start is expanded, by
evaluate_candidate, for the reported polynomial, theta and M.  Both
algorithms are written here, the Halton points in numpy and the simplex on
lists of floats, and the tests check them point for point against
reference implementations.

The starts are independent: when there are enough of them for two or more
CPUs (see _workers), they run on a fork-started process pool.  Either way
their results are merged in start order, so the result does not depend on
the number of workers.
"""

import math
import numbers
import os
import sys
from dataclasses import dataclass
from functools import partial, reduce
from operator import add
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .asymptotics import M_from_sums, M_from_theta
from .errors import NoFeasiblePointError, RatioOutOfRangeError
from .mollifier import solve_theta
from .trigpoly import (
    MAX_DEGREE,
    CosinePolynomial,
    ProductForm,
    _cosine_sums,
    _power_product,
    expand_product,
    require_nonneg,
)

ROOT_BOX = (0.01, 3.0)
MAX_ITER = 4000
_PENALTY = 1e9
_FATOL = 1e-15
# the Halton bases: one per squared factor, at most MAX_DEGREE // 2 = 16
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

# Nelder-Mead reflection, expansion, contraction and shrink coefficients
_RHO, _CHI, _PSI, _SIGMA = 1.0, 2.0, 0.5, 0.5
# initial simplex: each coordinate in turn scaled by 1.05, or set to 0.00025 if 0
_NONZERO_STEP, _ZERO_STEP = 0.05, 0.00025
# the fewest starts per worker process: on 2 vCPUs, starting and ending a
# pool of 2 workers costs 7-12 ms and one degree-5 start about 3 ms
_STARTS_PER_WORKER = 16


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


def evaluate_candidate(form: ProductForm) -> CandidateEval:
    """Expand one form and compute its theta and M.

    Nonnegativity is automatic from the product structure; solve_theta's
    refusal of b0 and b1 propagates, as from compute_M.
    """
    poly = expand_product(form)
    b = poly.coeffs
    theta = solve_theta(b[0], b[1])
    return CandidateEval(poly=poly, theta=theta, M=M_from_theta(b, theta))


def _objective(x: Sequence[float], half: bool) -> float:
    """-M of the unit-scale product form with log root offsets x, or _PENALTY.

    Offsets outside twice the root box, and forms whose b0 and b1
    solve_theta refuses, score _PENALTY.  M needs only b0, b1 and
    the coefficient sums, which _cosine_sums reads off the power-basis
    product, so no cosine expansion and no dataclass is built.  The box
    check keeps every offset finite and positive, so every power-basis
    coefficient is positive and so is sum_{j>=1} b_j.
    """
    roots = [math.exp(v) for v in x]
    if any(not (ROOT_BOX[0] * 0.5 <= a <= ROOT_BOX[1] * 2.0) for a in roots):
        return _PENALTY
    b0, b1, s_tail, s_all = _cosine_sums(_power_product(half, roots))
    try:
        theta = solve_theta(b0, b1)
    except (ValueError, RatioOutOfRangeError):
        return _PENALTY
    return -M_from_sums(b0, s_tail, s_all, theta)


def _scrambled_halton(dim: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the dim-dimensional scrambled Halton sequence.

    Coordinate k is the radical inverse of the point index in the k-th
    prime base, with digit j replaced by perm_j[digit]: one random
    permutation of the digits per place j with base**-(j+1) above 2**-54,
    drawn base by base from default_rng(seed).
    """
    rng = np.random.default_rng(seed)
    points = np.zeros((n, dim))
    for k in range(dim):
        base = _PRIMES[k]  # an IndexError above dim 16, not a column of zeros
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        quotient = np.arange(n)
        b2r = 1.0 / base
        for perm in perms:
            rng.shuffle(perm)
            quotient, digit = np.divmod(quotient, base)
            points[:, k] += perm[digit] * b2r
            b2r /= base
    return points


def _vertex_order(fsim: List[float]) -> List[int]:
    """Vertex indices by increasing value; ties keep their index order."""
    return sorted(range(len(fsim)), key=fsim.__getitem__)


def _nelder_mead(f, x0: List[float], f0: float, xatol: float) -> Tuple[List[float], float, bool]:
    """Minimize f from x0, where f0 = f(x0) is already known; return the
    best vertex, its value and whether it converged.

    It stops when every vertex is within xatol of the best one in each
    coordinate and every value within _FATOL of the best value, or after
    MAX_ITER iterations.  The vertices are lists of floats: on a few
    vertices numpy's per-call overhead costs more than the arithmetic.
    Every step keeps the order of operations of scipy's array
    implementation (the centroid is summed from the first vertex on, as
    numpy's axis-0 reduce does).  scipy orders the simplex with numpy's
    argsort, whose order of tied values depends on the CPU; this one uses
    the stable _vertex_order, so the iterates equal scipy's while no
    values tie, and on ties they are the same on every machine.
    """
    n = len(x0)
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + _NONZERO_STEP) * y[k] if y[k] != 0 else _ZERO_STEP
        sim.append(y)
    fsim = [f0] + [f(v) for v in sim[1:]]

    iterations = 1
    while True:
        order = _vertex_order(fsim)
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        best, worst = sim[0], sim[-1]
        if iterations >= MAX_ITER:
            return best, fsim[0], False
        # all(... <= tol), like np.max(...) <= tol, is False if any term is nan
        if (all(abs(fsim[0] - fv) <= _FATOL for fv in fsim[1:])
                and all(abs(a - b) <= xatol for v in sim[1:] for a, b in zip(v, best))):
            return best, fsim[0], True
        xbar = [reduce(add, col) / n for col in zip(*sim[:-1])]
        xr = [(1 + _RHO) * a - _RHO * b for a, b in zip(xbar, worst)]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = [(1 + _RHO * _CHI) * a - _RHO * _CHI * b for a, b in zip(xbar, worst)]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = [(1 + _PSI * _RHO) * a - _PSI * _RHO * b for a, b in zip(xbar, worst)]
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = [(1 - _PSI) * a + _PSI * b for a, b in zip(xbar, worst)]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = [b + _SIGMA * (a - b) for a, b in zip(sim[j], best)]
                    fsim[j] = f(sim[j])
        iterations += 1


def _run_start(
    x0: List[float], half: bool, tol: float
) -> Optional[Tuple[List[float], float, bool]]:
    """_nelder_mead's result from the start x0, or None if x0 scores _PENALTY."""
    objective = partial(_objective, half=half)
    f0 = objective(x0)
    if f0 >= _PENALTY:
        return None
    return _nelder_mead(objective, x0, f0, tol)


def _workers(starts: int) -> int:
    """How many processes run the starts; below 2 they run inline.

    At most one per CPU this process may run on, and one per
    _STARTS_PER_WORKER starts.  Only Linux gets a pool: fork is not safe on
    macOS, and spawn or forkserver would import numpy again in each worker.
    """
    if sys.platform != "linux":
        return 1
    return min(len(os.sched_getaffinity(0)), starts // _STARTS_PER_WORKER)


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
    if degree < 2 or degree > MAX_DEGREE:
        raise ValueError(f"degree must be in 2..{MAX_DEGREE}")
    if (degree - e) % 2 != 0:
        raise ValueError(
            f"degree {degree} is inconsistent with half_angle_factor={half_angle_factor}"
        )
    m = (degree - e) // 2
    if starts < 1:
        raise ValueError("starts must be >= 1")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")

    lo, hi = math.log(ROOT_BOX[0]), math.log(ROOT_BOX[1])
    points = [[lo + (hi - lo) * v for v in u] for u in _scrambled_halton(m, starts, seed).tolist()]
    run = partial(_run_start, half=half_angle_factor, tol=tol)
    workers = _workers(starts)
    if workers >= 2:
        import multiprocessing  # only here: importing it costs every cold CLI run

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(run, points)
    else:
        results = map(run, points)

    best_value = _PENALTY
    best_roots: Optional[Tuple[float, ...]] = None
    trace: List[Tuple[int, float]] = []
    capped = 0
    for idx, result in enumerate(results):
        if result is None:
            continue
        x, value, converged = result
        capped += not converged
        roots = tuple(sorted(math.exp(v) for v in x))
        if value < best_value or (value == best_value and roots < best_roots):
            best_value, best_roots = float(value), roots
        trace.append((idx, -best_value))

    if best_roots is None:
        raise NoFeasiblePointError("all starts were rejected")

    best_form = ProductForm(1.0, half_angle_factor, best_roots)
    best = evaluate_candidate(best_form)
    require_nonneg(best.poly)

    return OptimizationResult(
        best_form=best_form,
        best_poly=best.poly,
        theta=best.theta,
        M=best.M,
        starts_used=starts,
        trace=tuple(trace),
        notes=(f"{capped} of {starts} starts stopped at the iteration cap",) if capped else (),
    )
