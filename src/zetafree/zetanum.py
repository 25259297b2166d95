"""Zeta-side numerics with explicit truncation-error bookkeeping.

Provides the von Mangoldt sieve, the logarithmic-derivative Dirichlet
series with a rigorous tail bound, an Euler-Maclaurin zeta evaluator,
and the desk-scale verifications built on them: the telescoping identity

    sum_{k>=1} -Re zeta'/zeta(z + 2k*eta)
        = (1/(4 eta)) * int log|zeta(z + eta + 2i*eta*u/pi)| / cosh^2(u) du,

the midpoint upper bound for the real-axis sum, and the dual evaluation
of the cosine-weighted sum

    sum_j -b_j Re zeta'/zeta(x + i j y) = sum_n Lambda(n) n^{-x} p(y log n) >= 0.

All evaluators stay in the window Re(s) >= 1.25 where desk-scale tails
are rigorous; identities that hold for every Re > 1 are checked there.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Tuple

import mpmath as mp
import numpy as np

from .errors import CapacityError, DomainError
from .quadrature import adaptive_quad
from .trigpoly import Certificate, CosinePolynomial, eval_poly, verify_nonneg

DEFAULT_MAX_N = 10**8
SERIES_RE_MIN = 1.1
DESK_RE_MIN = 1.25


# ---------------------------------------------------------------------------
# von Mangoldt sieve and prime-power cache
# ---------------------------------------------------------------------------

def _sieve_primes(limit: int) -> np.ndarray:
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.nonzero(is_prime)[0]


class _PrimePowerCache:
    """Sorted prime powers n <= limit with their Lambda values, grown on demand."""

    def __init__(self):
        self.limit = 0
        self.n = np.empty(0)
        self.log_n = np.empty(0)
        self.lam = np.empty(0)

    def ensure(self, limit: int) -> None:
        if limit <= self.limit:
            return
        limit = max(limit, 2 * self.limit)
        primes = _sieve_primes(limit)
        ns = [primes.astype(np.float64)]
        lams = [np.log(primes)]
        # prime powers p^k, k >= 2
        k = 2
        while 2**k <= limit:
            base = primes[primes <= limit ** (1.0 / k) + 1e-9]
            powers = base.astype(np.int64) ** k
            powers = powers[powers <= limit]
            ns.append(powers.astype(np.float64))
            lams.append(np.log(base[: len(powers)].astype(np.float64)))
            k += 1
        n = np.concatenate(ns)
        lam = np.concatenate(lams)
        order = np.argsort(n, kind="stable")
        self.n = n[order]
        self.lam = lam[order]
        self.log_n = np.log(self.n)
        self.limit = limit

    def upto(self, N: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, Lambda(n), log n) for the prime powers n <= N, ascending in n."""
        self.ensure(N)
        i = np.searchsorted(self.n, N, side="right")
        return self.n[:i], self.lam[:i], self.log_n[:i]


_CACHE = _PrimePowerCache()


def _lambda_sum(s: complex, N: int) -> complex:
    """sum_{n <= N} Lambda(n) * n^(-s) over cached prime powers."""
    _, lam, log_n = _CACHE.upto(N)
    return complex(np.sum(lam * np.exp(-s * log_n)))


def tail_bound(N: int, sigma: float) -> float:
    """Upper bound for sum_{n > N} log(n) * n^(-sigma), sigma > 1."""
    if sigma <= 1:
        raise ValueError("sigma must exceed 1")
    d = sigma - 1.0
    return N ** (-d) * (math.log(N) / d + 1.0 / d**2)


def _n_for_tail(sigma: float, tol: float) -> int:
    """Smallest N with tail_bound(N, sigma) <= tol (may be astronomically large)."""
    lo, hi = 2, 4
    while tail_bound(hi, sigma) > tol:
        lo, hi = hi, hi * 4
        if hi > 10**30:
            return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail_bound(mid, sigma) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")


@dataclass(frozen=True)
class SeriesValue:
    """Truncated Dirichlet-series value with its tail bound."""

    value: complex
    tail_bound: float
    N: int

    def __complex__(self) -> complex:
        return self.value


def neg_zeta_logderiv(s: complex, tol: float, max_n: int = DEFAULT_MAX_N) -> SeriesValue:
    """-zeta'/zeta(s) as a truncated Lambda series, tail bounded by tol."""
    s = complex(s)
    if s.real < SERIES_RE_MIN:
        raise DomainError(f"Re(s) = {s.real} below the convergence window {SERIES_RE_MIN}")
    _check_tol(tol)
    N = _n_for_tail(s.real, tol)
    if N > max_n:
        raise CapacityError(
            f"tol {tol:.3g} at Re(s) = {s.real} needs N = {N}, above the cap {max_n}"
        )
    return SeriesValue(value=_lambda_sum(s, N), tail_bound=tail_bound(N, s.real), N=N)


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta
# ---------------------------------------------------------------------------

_EM_ORDER = 14
# B_0..B_{2*_EM_ORDER}, each the float nearest the exact rational
_BERN = tuple(float(Fraction(*mp.bernfrac(n))) for n in range(2 * _EM_ORDER + 1))
_EM_IM_MAX = 1e4


def zeta_em(s: complex) -> complex:
    """zeta(s) by Euler-Maclaurin, relative error <= 1e-12 in the window
    Re(s) > 1, |Im(s)| <= 1e4."""
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError("Re(s) must exceed 1")
    if abs(s.imag) > _EM_IM_MAX:
        raise DomainError(f"|Im(s)| above the desk-scale window {_EM_IM_MAX}")
    N = int(max(20, 1.3 * abs(s.imag) + 10))
    n = np.arange(1, N)
    total = complex(np.sum(np.exp(-s * np.log(n))))
    total += 0.5 * N ** (-s)
    total += N ** (1.0 - s) / (s - 1.0)
    prod = s
    fact = 2.0
    for j in range(1, _EM_ORDER + 1):
        if j > 1:
            prod = prod * (s + 2 * j - 3) * (s + 2 * j - 2)
            fact *= (2 * j) * (2 * j - 1)
        total += _BERN[2 * j] / fact * prod * N ** (-s - 2 * j + 1)
    return total


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Two-sided computation with honest error bounds and a verdict.

    kind "equality": pass iff |lhs - rhs| <= tol + lhs_error_bound +
    rhs_error_bound.  kind "upper_bound": pass iff lhs < rhs, with the
    margin and its bound-adjusted conservative version reported.
    """

    lhs: float
    rhs: float
    abs_diff: float
    lhs_error_bound: float
    rhs_error_bound: float
    passed: bool
    kind: str
    params: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_diff": self.abs_diff,
            "lhs_error_bound": self.lhs_error_bound,
            "rhs_error_bound": self.rhs_error_bound,
            "pass": self.passed,
            "kind": self.kind,
            "params": self.params,
        }


# ---------------------------------------------------------------------------
# Telescoping identity
# ---------------------------------------------------------------------------

_KTAIL_C = 4.0 * math.log(2.0)  # majorant constant: -zeta'/zeta(sigma) <= C*2^-sigma, sigma >= 2.5


def _k_sum(z: complex, eta: float, tol: float, max_n: int) -> Tuple[float, float, int]:
    """sum_{k>=1} -Re zeta'/zeta(z + 2k*eta) with an achieved error bound.

    Per-term tolerances are allocated geometrically (ratio 2^(-2*eta))
    because the leading term dominates the cost; each term's truncation
    is capped at max_n and the achieved tail bounds are summed into the
    reported error.
    """
    sigma = z.real
    r = 2.0 ** (-2.0 * eta)
    r = min(r, 0.98)
    # K: cut when the geometric majorant of the remaining terms is below tol/2
    K = 1
    while True:
        sig_next = sigma + 2.0 * (K + 1) * eta
        if sig_next >= 2.5:
            ktail = _KTAIL_C * 2.0 ** (-sig_next) / (1.0 - 2.0 ** (-2.0 * eta))
            if ktail <= tol / 2.0:
                break
        K += 1
        if K > 100000:
            raise ArithmeticError("failed to truncate the k sum")

    total = 0.0
    err = ktail
    for k in range(1, K + 1):
        sig_k = sigma + 2.0 * k * eta
        tol_k = (tol / 2.0) * (1.0 - r) * r ** (k - 1)
        N_k = min(_n_for_tail(sig_k, tol_k), max_n)
        total += (_lambda_sum(z + 2.0 * k * eta, N_k)).real
        err += tail_bound(N_k, sig_k)
    return total, err, K


def lemma_lhs(z: complex, eta: float, tol: float, max_n: int = DEFAULT_MAX_N) -> Tuple[float, float]:
    """Sum side of the telescoping identity; returns (value, error_bound)."""
    z = complex(z)
    if z.real < DESK_RE_MIN:
        raise DomainError(f"Re(z) = {z.real} below the desk-scale window {DESK_RE_MIN}")
    if eta <= 0:
        raise ValueError("eta must be positive")
    _check_tol(tol)
    value, err, _ = _k_sum(z, eta, tol, max_n)
    return value, err


def lemma_rhs(z: complex, eta: float, tol: float) -> Tuple[float, float]:
    """Integral side of the telescoping identity; returns (value, error_bound).

    The integrand is log|zeta| on the line Re = Re(z) + eta weighted by
    cosh^-2; |log|zeta(s)|| <= log zeta(Re s) bounds the truncated wings
    via int_{|u|>U} cosh^-2 = 2(1 - tanh U) <= 4 e^{-2U}.
    """
    z = complex(z)
    if z.real < DESK_RE_MIN:
        raise DomainError(f"Re(z) = {z.real} below the desk-scale window {DESK_RE_MIN}")
    if eta <= 0:
        raise ValueError("eta must be positive")
    _check_tol(tol)
    sigma_line = z.real + eta
    sup_log = math.log(zeta_em(complex(sigma_line)).real)
    # truncation: sup_log * 4*exp(-2U) / (4*eta) <= tol/2
    U = 0.5 * math.log(max(2.0 * sup_log / (eta * tol), 10.0))
    trunc = sup_log * 4.0 * math.exp(-2.0 * U) / (4.0 * eta)

    def integrand(u):
        u = np.atleast_1d(u)
        out = np.empty(u.shape)
        for i, ui in enumerate(u):
            s = z + eta + 2.0 * eta * 1j * ui / math.pi
            out[i] = math.log(abs(zeta_em(s))) / math.cosh(ui) ** 2
        return out

    val, quad_err = adaptive_quad(integrand, -U, U, tol=eta * tol)
    return val / (4.0 * eta), quad_err / (4.0 * eta) + trunc


def lemma_check(
    z: complex, eta: float, tol: float = 1e-6, max_n: int = DEFAULT_MAX_N
) -> VerificationReport:
    """Two-sided check of the telescoping identity."""
    lhs, lerr = lemma_lhs(z, eta, tol, max_n)
    rhs, rerr = lemma_rhs(z, eta, tol)
    diff = abs(lhs - rhs)
    return VerificationReport(
        lhs=lhs,
        rhs=rhs,
        abs_diff=diff,
        lhs_error_bound=lerr,
        rhs_error_bound=rerr,
        passed=diff <= tol + lerr + rerr,
        kind="equality",
        params={"z": [z.real, z.imag], "eta": eta, "tol": tol, "max_n": max_n},
    )


# ---------------------------------------------------------------------------
# Midpoint bound
# ---------------------------------------------------------------------------

def midpoint_bound_check(
    sigma: float, eta: float, tol: float = 1e-6, max_n: int = DEFAULT_MAX_N
) -> VerificationReport:
    """Check sum_{k>=1} -zeta'/zeta(sigma + 2k*eta) < log zeta(sigma+eta) / (2*eta).

    The verdict uses the computed margin; the truncated sum only
    underestimates the true sum (all dropped terms are positive), so the
    conservative margin (bounds subtracted) is reported separately.
    """
    if sigma < DESK_RE_MIN:
        raise DomainError(f"sigma = {sigma} below the desk-scale window {DESK_RE_MIN}")
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    _check_tol(tol)
    lhs, lerr, _ = _k_sum(complex(sigma), eta, tol, max_n)
    rhs_val = math.log(zeta_em(complex(sigma + eta)).real) / (2.0 * eta)
    rerr = abs(rhs_val) * 1e-12
    margin = rhs_val - lhs
    return VerificationReport(
        lhs=lhs,
        rhs=rhs_val,
        abs_diff=abs(margin),
        lhs_error_bound=lerr,
        rhs_error_bound=rerr,
        passed=margin > 0.0,
        kind="upper_bound",
        params={
            "sigma": sigma,
            "eta": eta,
            "tol": tol,
            "margin": margin,
            "conservative_margin": margin - lerr - rerr,
        },
    )


# ---------------------------------------------------------------------------
# Dual-route cosine-weighted sum
# ---------------------------------------------------------------------------

def applied_trig_sum(
    p: CosinePolynomial,
    x: float,
    y: float,
    tol: float = 1e-6,
    max_n: int = DEFAULT_MAX_N,
) -> VerificationReport:
    """Dual evaluation of sum_j -b_j Re zeta'/zeta(x + ijy).

    The Dirichlet route sums the series at each shifted point; the sieve
    route evaluates sum_n Lambda(n) n^{-x} p(y log n) directly.  Both use
    the same truncation N, so they agree up to rounding, and the sieve
    route is a sum of nonnegative terms whenever p is nonnegative.
    """
    if x < DESK_RE_MIN:
        raise DomainError(f"x = {x} below the desk-scale window {DESK_RE_MIN}")
    _check_tol(tol)
    cert = verify_nonneg(p)
    if not isinstance(cert, Certificate):
        raise ValueError("p must pass the nonnegativity check")
    N = min(_n_for_tail(x, tol), max_n)
    b = p.coeffs
    # -zeta'/zeta(x+ijy) is the Lambda series itself, so each term enters with +b_j
    lhs = sum(
        bj * _lambda_sum(complex(x, j * y), N).real for j, bj in enumerate(b)
    )
    _, lam, log_n = _CACHE.upto(N)
    weights = lam * np.exp(-x * log_n)
    rhs = float(np.sum(weights * eval_poly(p, y * log_n)))
    # the shared tail is bounded coefficient-by-coefficient
    bound = sum(abs(bj) for bj in b) * tail_bound(N, x)
    diff = abs(lhs - rhs)
    return VerificationReport(
        lhs=lhs,
        rhs=rhs,
        abs_diff=diff,
        lhs_error_bound=bound,
        rhs_error_bound=bound,
        passed=diff <= tol + 2.0 * bound and rhs >= -bound,
        kind="equality",
        params={
            "x": x,
            "y": y,
            "tol": tol,
            "N": N,
            "nonnegative": rhs >= -bound,
            "coeffs": list(b),
        },
    )
