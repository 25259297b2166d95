"""Multistart derivative-free search for the product form maximizing M.

Each squared factor is (cos phi + sin phi * cos t)^2, a = cot phi, with phi
clipped to [0, pi/2]: phi = 0 is the constant factor 1, so the lower
degrees are a face of the box [0, pi/2]^m.  The starts are drawn uniformly
from the box by numpy's default_rng(seed).  Every start is scored once.
Nelder-Mead (Nelder and Mead, Comput. J. 7, 1965; reflection 1, expansion
2, contraction 0.5, shrink 0.5) then runs over the angles only from the
starts that multi-level single linkage keeps (Rinnooy Kan and Timmer,
"Stochastic global optimization methods, Part II: Multi level methods",
Math. Programming 39, 1987): those with no better-scoring start within the
critical distance, which that paper derives for uniform starts.  Each kept
start gets one run of at most MAX_ITER iterations, from an initial simplex
that moves one angle at a time by _STEP = 0.1 rad toward the box centre
pi/4, so its edges have the same length at every start, phi = 0 included.
Each point is scored from b0, b1 and the coefficient sums, read off the
power-basis product without the full cosine expansion; a point scores a
penalty exactly where solve_theta refuses its b0 and b1.
The kept searches run inline, in start order; only the winner is expanded,
by evaluate_candidate, for the reported polynomial, theta and M.  The
simplex is written here on lists of floats, and the tests check it against
scipy's.
"""

import math
import numbers
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

MAX_ITER = 4000
_PENALTY = 1e9
_FATOL = 1e-15

# Nelder-Mead reflection, expansion, contraction and shrink coefficients
_RHO, _CHI, _PSI, _SIGMA = 1.0, 2.0, 0.5, 0.5
# initial simplex: each angle in turn moved this far toward the box centre pi/4
_STEP = 0.1
# sigma of the critical distance: a larger sigma keeps fewer starts
_MLSL_SIGMA = 4.0


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


def _angles(x: Sequence[float]) -> List[float]:
    """The factor angles of the point x: each coordinate clipped to [0, pi/2]."""
    return [min(max(v, 0.0), 0.5 * math.pi) for v in x]


def _objective(x: Sequence[float], half: bool) -> float:
    """-M of the product of the factors (cos phi + sin phi * c)^2 over the
    angles phi of x, or _PENALTY where solve_theta refuses its b0 and b1.

    M needs only b0, b1 and the coefficient sums, which _cosine_sums reads
    off the power-basis product, so no cosine expansion is built.  Every
    power-basis coefficient lies in [0, 2**(m + 1)], so none needs a scale.
    """
    factors = [(math.cos(phi), math.sin(phi)) for phi in _angles(x)]
    b0, b1, s_tail, s_all = _cosine_sums(_power_product(half, factors))
    try:
        theta = solve_theta(b0, b1)
    except (ValueError, RatioOutOfRangeError):
        return _PENALTY
    return -M_from_sums(b0, s_tail, s_all, theta)


def _starts(m: int, starts: int, seed: int) -> List[List[float]]:
    """The first `starts` points drawn uniformly from the box [0, pi/2]^m.

    default_rng fills the array row by row, so more starts only append to
    the same sequence.
    """
    draws = np.random.default_rng(seed).random((starts, m))
    return [[0.5 * math.pi * v for v in row] for row in draws.tolist()]


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
    The initial simplex is x0 and, for each k, x0 with coordinate k moved
    by _STEP toward pi/4.  From there every step keeps the order of
    operations of scipy's array implementation (the centroid is summed
    from the first vertex on, as numpy's axis-0 reduce does).  scipy
    orders the simplex with numpy's argsort, whose order of tied values
    depends on the CPU; this one uses the stable _vertex_order, so the
    iterates equal scipy's while no values tie, and on ties they are the
    same on every machine.
    """
    n = len(x0)
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] += _STEP if y[k] < 0.25 * math.pi else -_STEP
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


def _critical_distance(m: int, k: int) -> float:
    """Multi-level single linkage's critical distance for k starts in the
    box [0, pi/2]^m: pi**-0.5 * (Gamma(1 + m/2) * V * _MLSL_SIGMA * log k /
    k)**(1/m), with V = (pi/2)**m the box volume; 0 at k = 1."""
    ball = math.gamma(1 + m / 2) * (0.5 * math.pi) ** m * _MLSL_SIGMA * math.log(k) / k
    return ball ** (1 / m) / math.sqrt(math.pi)


def _kept_starts(points: List[List[float]], scores: List[float], r: float) -> List[int]:
    """The feasible starts with no start of lower (score, index) within r, in start order.

    Each start is compared with the better-ranked ones one row at a time, so
    no k x k array is built.  The squared distance is summed coordinate by
    coordinate in elementwise numpy operations, which round alike on every
    CPU, so no comparison with r**2 depends on numpy's dispatch.
    """
    ranked = sorted((i for i, f in enumerate(scores) if f < _PENALTY), key=lambda i: (scores[i], i))
    columns = np.array([points[i] for i in ranked]).T.copy()
    r2 = r * r
    kept = []
    for t, i in enumerate(ranked):
        d2 = np.zeros(t)
        for col in columns:
            d2 += (col[:t] - col[t]) ** 2
        if not (d2 <= r2).any():
            kept.append(i)
    return sorted(kept)


def optimize(
    degree: int,
    half_angle_factor: bool,
    starts: int = 64,
    seed: int = 0,
    tol: float = 1e-10,
) -> OptimizationResult:
    """Maximize M over product forms of at most the given degree.

    Deterministic for a fixed (degree, half_angle_factor, starts, seed,
    tol): the starts are uniform draws from default_rng(seed) in the angle
    box, and increasing starts only appends to the same sequence, though
    the critical distance, and so the kept starts, depend on starts.  The
    trace has one entry per kept start, the best M so far, and from the
    winning start on the reported M.  The winner's factors at phi = 0
    are dropped and counted in notes, so the reported degree may be lower,
    of the same parity; the others are reported as the roots cot phi.  A
    search that stops at the MAX_ITER cap instead of reaching tol still
    counts, and is counted in notes.
    """
    e = 1 if half_angle_factor else 0
    if not (isinstance(degree, numbers.Integral) and not isinstance(degree, bool)
            and 2 <= degree <= MAX_DEGREE):
        raise ValueError(f"degree must be an integer in 2..{MAX_DEGREE}, got {degree!r}")
    if (degree - e) % 2 != 0:
        raise ValueError(f"degree {degree} is inconsistent with "
                         f"half_angle_factor={half_angle_factor}")
    m = (degree - e) // 2
    if not (isinstance(starts, numbers.Integral) and not isinstance(starts, bool) and starts >= 1):
        raise ValueError(f"starts must be a positive integer, got {starts!r}")
    if not (isinstance(seed, numbers.Integral) and not isinstance(seed, bool) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if not (isinstance(tol, numbers.Real) and not isinstance(tol, bool) and 0 < tol < math.inf):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")

    points = _starts(m, starts, seed)
    objective = partial(_objective, half=half_angle_factor)
    scores = [objective(x) for x in points]

    best_value = _PENALTY
    best_angles: Optional[Tuple[float, ...]] = None
    trace: List[Tuple[int, float]] = []
    capped = 0
    for idx in _kept_starts(points, scores, _critical_distance(m, starts)):
        x, value, converged = _nelder_mead(objective, points[idx], scores[idx], tol)
        capped += not converged
        angles = tuple(sorted(_angles(x)))
        if value < best_value or (value == best_value and angles < best_angles):
            best_value, best_angles = float(value), angles
        trace.append((idx, -best_value))

    if best_angles is None:
        raise NoFeasiblePointError("all starts were rejected")

    roots = sorted(math.cos(phi) / math.sin(phi) for phi in best_angles if phi != 0.0)
    best_form = ProductForm(1.0, half_angle_factor, tuple(roots))
    best = evaluate_candidate(best_form)
    require_nonneg(best.poly)
    trace = [(idx, best.M if value == -best_value else value) for idx, value in trace]
    notes = []
    if capped:
        notes.append(f"{capped} of {len(trace)} searches stopped at the iteration cap")
    if len(roots) < m:
        notes.append(f"{m - len(roots)} of {m} factors are constant (phi = 0)")

    return OptimizationResult(
        best_form=best_form,
        best_poly=best.poly,
        theta=best.theta,
        M=best.M,
        starts_used=starts,
        trace=tuple(trace),
        notes=tuple(notes),
    )
