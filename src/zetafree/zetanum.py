"""Zeta-side numerics with explicit truncation-error bookkeeping.

Provides the von Mangoldt sieve, the logarithmic-derivative Dirichlet
series with a rigorous tail bound, an Euler-Maclaurin zeta evaluator,
and the desk-scale verifications built on them: the telescoping identity

    sum_{k>=1} -Re zeta'/zeta(z + 2k*eta)
        = (1/(4 eta)) * int log|zeta(z + eta + 2i*eta*u/pi)| / cosh^2(u) du,

the midpoint upper bound for the real-axis sum, and the dual evaluation
of the cosine-weighted sum

    sum_j -b_j Re zeta'/zeta(x + i j y) = sum_n Lambda(n) n^{-x} p(y log n) >= 0.

The verifiers stay in the window Re(s) >= 1.25 where desk-scale tails are
rigorous (the series alone in Re(s) >= 1.1); identities that hold for every
Re > 1 are checked there.  _check_args is the one argument check.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Tuple

import numpy as np

from .errors import CapacityError, DomainError
from .mollifier import _bernoulli
from .quadrature import _require_tol, adaptive_quad
from .trigpoly import CosinePolynomial, _eval_cos, require_nonneg

DEFAULT_MAX_N = 10**8
SERIES_RE_MIN = 1.1
DESK_RE_MIN = 1.25


# ---------------------------------------------------------------------------
# von Mangoldt sieve and prime-power cache
# ---------------------------------------------------------------------------

def _sieve_primes(limit: int) -> np.ndarray:
    """Primes <= limit, ascending; the sieve holds the odd numbers only."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    # is_prime[i] tells whether 2i + 1 is prime
    is_prime = np.ones((limit + 1) // 2, dtype=bool)
    is_prime[0] = False
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if is_prime[i]:
            p = 2 * i + 1
            is_prime[p * p // 2 :: p] = False
    return np.concatenate(([2], 2 * np.nonzero(is_prime)[0] + 1))


def _higher_powers(primes: np.ndarray, limit: int) -> Tuple[np.ndarray, np.ndarray]:
    """The prime powers p^k <= limit with k >= 2, ascending, and log p for each."""
    powers, log_bases = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    k = 2
    while 2**k <= limit:
        root = math.floor(limit ** (1.0 / k) + 1e-9)
        base = primes[: np.searchsorted(primes, root, side="right")]
        pk = base**k
        powers.append(pk[pk <= limit])
        log_bases.append(np.log(base[: len(powers[-1])].astype(np.float64)))
        k += 1
    powers = np.concatenate(powers)
    order = np.argsort(powers)
    return powers[order], np.concatenate(log_bases)[order]


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
        powers, log_base = _higher_powers(primes, limit)
        at = np.searchsorted(primes, powers)
        # rows n, Lambda(n) and log n of the primes (for a prime, log n is
        # Lambda(n)), then the few powers inserted into all three at once.
        # Freeing rows, larger than one table-size array, lifts glibc's mmap
        # threshold above that size, so the verifiers' table-size temporaries
        # reuse heap memory instead of faulting in fresh pages on every call.
        rows = np.empty((3, len(primes)))
        rows[0] = primes
        del primes  # freed before np.insert allocates the table
        np.log(rows[0], out=rows[1])
        rows[2] = rows[1]
        powers = powers.astype(np.float64)
        self.n, self.lam, self.log_n = np.insert(
            rows, at, np.stack((powers, log_base, np.log(powers))), axis=1)
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


def _check_args(name: str, re: float, floor: float, tol: float,
                max_n: int = DEFAULT_MAX_N) -> None:
    """The zeta-side argument checks: DomainError if the real part re, called
    name, is below floor; ValueError unless tol is finite > 0 and max_n >= 1."""
    if re < floor:
        window = "convergence" if floor == SERIES_RE_MIN else "desk-scale"
        raise DomainError(f"{name} = {re} below the {window} window {floor}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if not max_n >= 1:
        raise ValueError(f"max_n must be >= 1, got {max_n!r}")


@dataclass(frozen=True)
class SeriesValue:
    """Truncated Dirichlet-series value with its tail bound."""

    value: complex
    tail_bound: float
    N: int


def neg_zeta_logderiv(s: complex, tol: float, max_n: int = DEFAULT_MAX_N) -> SeriesValue:
    """-zeta'/zeta(s) as a truncated Lambda series, tail bounded by tol."""
    s = complex(s)
    _check_args("Re(s)", s.real, SERIES_RE_MIN, tol, max_n)
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
_BERN = tuple(float(b) for b in _bernoulli(2 * _EM_ORDER))
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
        """The fields as a dict, with passed under the key "pass"."""
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


# ---------------------------------------------------------------------------
# Telescoping identity
# ---------------------------------------------------------------------------

def _check_k_sum_range(sigma: float, eta: float) -> None:
    """Raise DomainError if eta is so small that the k-sum at Re z = sigma
    leaves the float range.

    With s = sigma + 2*eta, tail_bound(N, s) falls as N grows from 1, and
    1 - n^(-2*eta) grows with n, so tail_bound(1, s) / (1 - 2^(-2*eta)) bounds
    the first term (n = 2), the whole sum and its tail bound at once.
    """
    s = sigma + 2.0 * eta
    if not math.isfinite(tail_bound(1, s) / -math.expm1(-2.0 * eta * math.log(2.0))):
        raise DomainError(f"eta = {eta!r} is too small: the k-sum at Re(z) = {sigma} "
                          "leaves the float range")


def _k_sum(z: complex, eta: float, tol: float, max_n: int) -> Tuple[float, float]:
    """sum_{k>=1} -Re zeta'/zeta(z + 2k*eta) with an achieved error bound.

    Summed over k first, the terms of each prime power n form a geometric
    series, so with s = Re z + 2*eta and t = Im z the sum is
    sum_n Lambda(n) cos(t log n) n^(-s) / (1 - n^(-2*eta)), truncated at one
    N <= max_n.  Every n > N has 1 - n^(-2*eta) >= 1 - (N+1)^(-2*eta), so
    tail_bound(N, s) over that bounds the rest, and it is <= tol if N < max_n.
    Raises DomainError first if the sum leaves the float range.
    """
    _check_k_sum_range(z.real, eta)
    s, t = z.real + 2.0 * eta, z.imag
    N = min(_n_for_tail(s, tol * -math.expm1(-2.0 * eta * math.log(2.0))), max_n)
    _, lam, log_n = _CACHE.upto(N)
    # in place, two prefix-length arrays; the denominator is -expm1 because
    # 1/expm1(2*eta*log n) overflows at large eta
    den = np.multiply(log_n, -2.0 * eta)
    np.negative(np.expm1(den, out=den), out=den)
    terms = np.multiply(log_n, -s)
    np.exp(terms, out=terms)
    terms /= den
    if t:  # no cosine at t = 0, where every cos(t log n) is 1
        terms *= np.cos(np.multiply(log_n, t, out=den), out=den)
    terms *= lam
    bound = tail_bound(N, s) / -math.expm1(-2.0 * eta * math.log(N + 1))
    return float(np.sum(terms)), bound


def lemma_lhs(z: complex, eta: float, tol: float, max_n: int = DEFAULT_MAX_N) -> Tuple[float, float]:
    """Sum side of the telescoping identity; returns (value, error_bound)."""
    z = complex(z)
    _check_args("Re(z)", z.real, DESK_RE_MIN, tol, max_n)
    if eta <= 0:
        raise ValueError("eta must be positive")
    return _k_sum(z, eta, tol, max_n)


def lemma_rhs(z: complex, eta: float, tol: float) -> Tuple[float, float]:
    """Integral side of the telescoping identity; returns (value, error_bound).

    The integrand is log|zeta| on the line Re = Re(z) + eta weighted by
    cosh^-2; |log|zeta(s)|| <= log zeta(Re s) bounds the truncated wings
    via int_{|u|>U} cosh^-2 = 2(1 - tanh U) <= 4 e^{-2U}.  Raises
    QuadratureError if the quadrature's error estimate stays above eta*tol.
    Raises DomainError if eta is so small that the bound
    log zeta(Re z + eta) / (2*eta) on the value leaves the float range, or
    if the target eta*tol is at or below 2**-52 times the integral's
    bound 2*log zeta(Re z + eta), which floats cannot resolve.
    """
    z = complex(z)
    _check_args("Re(z)", z.real, DESK_RE_MIN, tol)
    if eta <= 0:
        raise ValueError("eta must be positive")
    sigma_line = z.real + eta
    sup_log = math.log(zeta_em(complex(sigma_line)).real)
    # |val| <= sup_log * int cosh^-2 = 2*sup_log, so this bounds val / (4*eta)
    if not math.isfinite(sup_log / (2.0 * eta)):
        raise DomainError(f"eta = {eta!r} is too small: the integral side's bound "
                          f"log zeta({sigma_line!r}) / (2*eta) leaves the float range")
    if eta * tol <= 2.0 * sup_log * 2.0**-52:
        raise DomainError(f"eta = {eta!r} is too small at tol = {tol!r}: the target eta*tol "
                          f"is within rounding of the integral's bound 2*log zeta({sigma_line!r})")
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
    _require_tol(quad_err, eta * tol)
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
    _check_args("sigma", sigma, DESK_RE_MIN, tol, max_n)
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    lhs, lerr = _k_sum(complex(sigma), eta, tol, max_n)
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

# applied_trig_sum evaluates p at this many points per eval_poly call, which
# bounds the size of eval_poly's temporaries
_EVAL_BLOCK = 1 << 16


def applied_trig_sum(
    p: CosinePolynomial,
    x: float,
    y: float,
    tol: float = 1e-6,
    max_n: int = DEFAULT_MAX_N,
) -> VerificationReport:
    """Dual evaluation of sum_j -b_j Re zeta'/zeta(x + ijy).

    Both routes share the real weights w = Lambda(n) n^{-x} over one
    truncation N, so they agree up to rounding.  Both run over the same
    blocks of points, with phi = y log n.  The Dirichlet route sums the
    series at each shifted point: term j is sum_n w cos(j phi), and with
    c = cos phi, cos(j phi) = T_j(c), so the block's terms come from one
    cosine per point by t_0 = w, t_1 = w c, t_{j+1} = 2c t_j - t_{j-1}
    (exactly w at y = 0, where c = 1).  The sieve route evaluates
    sum_n w p(phi) directly, a sum of nonnegative terms whenever p is
    nonnegative, by eval_poly's kernel on the same cosines.  A p that
    dips raises NonnegativityError (require_nonneg, one certificate per
    object).
    """
    _check_args("x", x, DESK_RE_MIN, tol, max_n)
    require_nonneg(p)
    N = min(_n_for_tail(x, tol), max_n)
    b = p.coeffs
    _, lam, log_n = _CACHE.upto(N)
    # the sieve route's terms w * p(phi), summed at once after the loop
    sieve_terms = np.empty_like(lam)
    # terms[j] accumulates the Dirichlet route's term j over the blocks
    terms = np.zeros(len(b))
    for a in range(0, len(lam), _EVAL_BLOCK):
        blk = slice(a, a + _EVAL_BLOCK)
        w, phi = lam[blk] * np.exp(-x * log_n[blk]), y * log_n[blk]
        c = np.cos(phi)  # one cosine per point, for both routes
        sieve_terms[blk] = w * _eval_cos(b, phi, c)
        two_c = c + c
        prev, t = w, w * c
        terms[0] += np.sum(w)
        terms[1] += np.sum(t)
        for j in range(2, len(b)):
            prev, t = t, two_c * t - prev
            terms[j] += np.sum(t)
    # -zeta'/zeta(x+ijy) is the Lambda series itself, so each term enters with +b_j
    lhs = sum(bj * float(s) for bj, s in zip(b, terms))
    rhs = float(np.sum(sieve_terms))
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
