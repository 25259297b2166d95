"""Objective constant M and the region constants C, eta, lambda.

For a feasible cosine polynomial b_0..b_d with shape angle theta,
    M   = b0*cos^2(theta) / ((3/4)*(sum_{j>=1} b_j)*(sum_j b_j)^(1/2))^(2/3)
    C   = (4*sum_j b_j / (3*B*sum_{j>=1} b_j))^(2/3)
    eta = C * (log log t / log t)^(2/3)
    lam = M / ((B log t)^(2/3) * (log log t)^(1/3))
and the region rows assert no zero with real part above 1 - lam near
height t.
"""

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .errors import DomainError
from .mollifier import solve_theta
from .trigpoly import CosinePolynomial, require_nonneg

DEFAULT_A = 76.2
DEFAULT_B = 4.45


@dataclass(frozen=True)
class RegionRow:
    t: float
    eta: float
    lam: float
    beta_bound: float
    flags: Tuple[str, ...] = field(default_factory=tuple)


def check_objective_input(p: CosinePolynomial) -> float:
    """p's shape angle theta, once p passes the nonnegativity check and
    solve_theta accepts b0 and b1; the checks run in that order."""
    require_nonneg(p)
    return solve_theta(p.coeffs[0], p.coeffs[1])


def compute_M(p: CosinePolynomial) -> float:
    """Objective constant M; homogeneous of degree 0 in the coefficients."""
    return M_from_theta(p.coeffs, check_objective_input(p))


def M_from_theta(b: Sequence[float], theta: float) -> float:
    """M for coefficients b_0..b_d whose shape angle theta is already solved."""
    return M_from_sums(*_scaled_sums(b), theta)


def _scaled_sums(b: Sequence[float]) -> Tuple[float, float, float]:
    """b_0, sum_{j>=1} b_j and sum_j b_j, the scale-free inputs of M and C.

    A b_0 outside 2**(+-256) is first scaled by an exact power of two, all
    b_j with it, into [0.5, 1), or less if some |b_j| would reach 2 (no
    nonnegative polynomial has |b_j| > 2 b_0), so M and C neither overflow
    nor underflow.  Raises ValueError unless sum_{j>=1} b_j is positive.
    """
    e = math.frexp(b[0])[1]
    if abs(e) > 256:
        e = max(e, math.frexp(max(map(abs, b)))[1] - 1)
        b = [math.ldexp(x, -e) for x in b]
    s_tail = sum(b[1:])
    if s_tail <= 0:
        raise ValueError("sum of b_1..b_d must be positive")
    return b[0], s_tail, sum(b)


def M_from_sums(b0: float, s_tail: float, s_all: float, theta: float) -> float:
    """M from b_0, sum_{j>=1} b_j, sum_j b_j and the solved shape angle theta."""
    denom = (0.75 * s_tail * math.sqrt(s_all)) ** (2.0 / 3.0)
    return b0 * math.cos(theta) ** 2 / denom


def _split_B(B: float) -> Tuple[float, int]:
    """(m, k) with B = m * 8**k exactly, 1 <= m < 8 (m = B for DEFAULT_B):
    B**(2/3) = m**(2/3) * 4**k and its inverse are finite for every B > 0."""
    k = (math.frexp(B)[1] - 1) // 3
    return math.ldexp(B, -3 * k), k


def compute_C(p: CosinePolynomial, B: float) -> float:
    """Optimal constant in the eta asymptotic, for growth constant B."""
    if not 0 < B < math.inf:
        raise ValueError("B must be positive")
    _, s_tail, s_all = _scaled_sums(p.coeffs)
    m, k = _split_B(B)
    return math.ldexp((4.0 * s_all / (3.0 * m * s_tail)) ** (2.0 / 3.0), -2 * k)


def eta_of(t: float, C: float) -> float:
    if not math.e < t < math.inf:
        raise DomainError("t must exceed e so that log log t is positive")
    if not 0 < C < math.inf:
        raise ValueError("C must be positive")
    return C * (math.log(math.log(t)) / math.log(t)) ** (2.0 / 3.0)


def lambda_of(t: float, B: float, M: float) -> float:
    if not math.e < t < math.inf:
        raise DomainError("t must exceed e so that log log t is positive")
    if not (0 < B < math.inf and 0 < M < math.inf):
        raise ValueError("B and M must be positive")
    m, k = _split_B(B)
    return M / (math.ldexp((m * math.log(t)) ** (2.0 / 3.0), 2 * k)
                * math.log(math.log(t)) ** (1.0 / 3.0))


def region_table(
    p: CosinePolynomial,
    B: float = DEFAULT_B,
    t_values: Sequence[float] = (3e12,),
) -> List[RegionRow]:
    """Zero-free-region rows beta <= 1 - lambda(t), with hypothesis flags."""
    M = compute_M(p)
    C = compute_C(p, B)
    rows = []
    for t in t_values:
        if not 100 < t < math.inf:
            raise DomainError(f"t = {t} must exceed 100")
        eta = eta_of(t, C)
        lam = lambda_of(t, B, M)
        flags = []
        if lam >= eta / 250.0:
            flags.append("lambda_not_below_eta_over_250")
        if t <= 10000:
            flags.append("t_not_above_10000")
        rows.append(RegionRow(t=float(t), eta=eta, lam=lam,
                              beta_bound=1.0 - lam, flags=tuple(flags)))
    return rows
