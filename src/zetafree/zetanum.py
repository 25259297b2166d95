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
from .mollifier import _BERNOULLI
from .quadrature import strip_gauss
from .trigpoly import CosinePolynomial, _eval_cos, require_nonneg

DEFAULT_MAX_N = 10**8
SERIES_RE_MIN = 1.1
DESK_RE_MIN = 1.25
_STRIP = 0.45 * math.pi  # lemma_rhs bounds its integrand on |Im u| <= _STRIP, inside pi/2


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
        if self.limit:
            # a table grows by doubling, for few rebuilds, but only up to the
            # next power of ten, and to it from half way there: so a round
            # cap, such as max_n = 10**7, caps it, and is reached in one step
            top = 10 ** math.ceil(math.log10(limit))
            limit = top if 2 * limit > top else max(limit, min(2 * self.limit, top))
        # the old table goes first, so a rebuild never holds both
        self.__init__()
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


# Rosser and Schoenfeld, "Approximate formulas for some functions of prime
# numbers", Illinois J. Math. 6 (1962), Thm. 12: psi(x) < PSI_RATIO * x for
# every x > 0 (the largest psi(x)/x is 1.03882... at x = 113)
PSI_RATIO = 1.03883


def tail_bound(N: int, sigma: float) -> float:
    """Upper bound for sum_{n > N} Lambda(n) * n^(-sigma), N >= 1, sigma > 1.

    The smaller of two bounds.  Lambda(n) <= log n gives
    N^(1-sigma) (log N/(sigma-1) + 1/(sigma-1)^2).  Partial summation gives
    sigma * int_N^inf psi(x) x^(-sigma-1) dx, at most
    PSI_RATIO * sigma * N^(1-sigma)/(sigma-1); it is the smaller one except at
    small N or large sigma.  Both fall as N grows, so the minimum does too.
    """
    if sigma <= 1:
        raise ValueError("sigma must exceed 1")
    d = sigma - 1.0
    log_n = math.log(N)
    try:
        scale = N ** -d
    except OverflowError:  # an int N beyond the float range, as _n_for_tail may try
        scale = math.exp(-d * log_n)
    return scale * min(log_n / d + 1.0 / d**2, PSI_RATIO * sigma / d)


def _n_for_tail(sigma: float, tol: float) -> int:
    """Smallest N >= 1 with tail_bound(N, sigma) <= tol, however large.

    Doubles N to a bracket, then bisects it, so it takes about 2*log2(N)
    bound evaluations; tail_bound reaches 0.0 once N^(1-sigma) underflows.
    """
    if tail_bound(1, sigma) <= tol:
        return 1
    lo, hi = 1, 2  # tail_bound(lo) > tol throughout
    while tail_bound(hi, sigma) > tol:
        lo, hi = hi, hi << 1
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if tail_bound(mid, sigma) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


def _check_args(names: Tuple[str, ...], z: complex, floor: float, tol: float,
                max_n: int = DEFAULT_MAX_N, eta=None, eta_max=math.inf) -> complex:
    """z as a complex, once Re z (called names[0]) is finite and >= floor and
    Im z (names[1], if named) is finite, else DomainError; ValueError unless
    tol is finite > 0, max_n a whole number >= 1 and eta, if given, in (0, eta_max)."""
    z = complex(z)
    if z.real < floor:
        window = "convergence" if floor == SERIES_RE_MIN else "desk-scale"
        raise DomainError(f"{names[0]} = {z.real} below the {window} window {floor}")
    for name, part in zip(names, (z.real, z.imag)):
        if not math.isfinite(part):
            raise DomainError(f"{name} = {part} is not finite")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if not max_n >= 1:
        raise ValueError(f"max_n must be >= 1, got {max_n!r}")
    if isinstance(max_n, bool) or max_n % 1 != 0:  # inf % 1 is nan
        raise ValueError(f"max_n must be a whole number, got {max_n!r}")
    if eta is not None and not 0.0 < eta < eta_max:
        raise ValueError(f"eta must lie in (0, {eta_max:g}), got {eta!r}")
    return z


@dataclass(frozen=True)
class SeriesValue:
    """Truncated Dirichlet-series value with its tail bound."""

    value: complex
    tail_bound: float
    N: int


# Buthe, "An analytic method for bounding psi(x)", Math. Comp. 87 (2018),
# Thm. 2: |psi(x) - x| <= BUTHE_SQRT * sqrt(x) for 11 < x <= BUTHE_X
BUTHE_SQRT = 0.94
BUTHE_X = 10**19
# the k-ladder's main term sums K <= _LADDER_K_MAX shifts, N^(-2*eta*K) <= e^-_LADDER_E
_LADDER_K_MAX, _LADDER_E = 4096, 40.0


class _Cut:
    """The cut of sum_j b_j sum_n Lambda(n) n^(-s_j), shifts s_j of one real
    part sigma, or with eta > 0 of the k-ladder s + 2k*eta, k >= 0.

    By partial summation against psi(x) = x + R(x), a shift's terms n > N
    are N^(-s) (N/(s-1) - R(N)), the main term, plus E with, for 12 <= N <=
    X = BUTHE_X (Buthe below X, PSI_RATIO above),
        |E| <= BUTHE_SQRT (N^(1/2-sigma) |s|/(sigma-1/2) + X^(1/2-sigma))
               + X^(1-sigma) (1/|s-1| + PSI_RATIO*sigma/(sigma-1)).
    Each factor falls in k, so the ladder's N and X parts are the k = 0 ones
    over 1 - N^(-2*eta) and 1 - X^(-2*eta); its main term's k >= K are
    bounded geometrically.  Where this explicit bound does not apply or is
    larger, there is no main term and the absolute bound
    sum_j |b_j| tail_bound(N, sigma), over 1 - (N+1)^(-2*eta) on the ladder.
    """

    def __init__(self, s, b=(1.0,), eta=0.0):
        self.s, self.b, self.eta = [complex(v) for v in s], b, eta
        sigma = self.sigma = self.s[0].real
        self.d, self.w = sigma - 0.5, sum(abs(v) for v in b)
        self.A = BUTHE_SQRT * sum(abs(bj * sj) for bj, sj in zip(b, self.s)) / self.d
        self.F = (self.w * BUTHE_SQRT * BUTHE_X**-self.d + BUTHE_X ** (1.0 - sigma) * sum(
            abs(bj) * (1.0 / abs(sj - 1.0) + PSI_RATIO * sigma / (sigma - 1.0))
            for bj, sj in zip(b, self.s))) / self._den(math.log(BUTHE_X))

    def _den(self, log_n: float) -> float:
        """1 - n^(-2*eta) on the ladder, else 1."""
        return -math.expm1(-2.0 * self.eta * log_n) if self.eta else 1.0

    def explicit(self, N: int) -> Tuple[float, int]:
        """(bound, K) of the explicit cut at N; the bound is inf where it does not apply."""
        log_n = math.log(N)
        u = 2.0 * self.eta * log_n
        if not 12 <= N <= BUTHE_X or self.eta and u * _LADDER_K_MAX < _LADDER_E:
            return math.inf, 0
        bound = self.A * math.exp(-self.d * log_n) / self._den(log_n) + self.F
        if not self.eta:
            return bound, 0
        K = math.ceil(_LADDER_E / u)
        # the main term's k >= K, each at most N^(-sigma-2k*eta) (N/(sigma-1) + |R(N)|)
        return bound + math.exp(-self.sigma * log_n - K * u) * (
            N / (self.sigma - 1.0) + BUTHE_SQRT * math.sqrt(N)) / -math.expm1(-u), K

    def need(self, tol: float) -> int:
        """The smallest N whose bound meets tol: the explicit bound's, from its
        closed form, unless the absolute bound's (_n_for_tail) is smaller."""
        if not self.w:  # every b_j is 0, and so is the series
            return 1
        N, rest = math.inf, tol - self.F
        if rest > 0:  # A N^-d / (1 - N^(-2*eta)) = rest, by fixed-point steps on the ladder
            L = L0 = math.log(self.A / rest) / self.d
            for _ in range(30 if self.eta else 0):  # the steps alternate about the root
                prev, L = L, L0 - math.log(self._den(max(L, 2.5))) / self.d
                if abs(L - prev) * math.exp(min(L, 44.0)) < 0.5:
                    break
            # L is within 1/(2N) of the root, so N - 2 misses tol
            N = max(12, math.ceil(math.exp(min(L, 44.0))) - 1)
            while tol < self.explicit(N)[0] < math.inf:
                N += 1
            if not self.explicit(N)[0] <= tol:  # N above X, or K above its cap
                N = math.inf
        tau = tol * self._den(math.log(2.0)) / self.w
        if N == math.inf or tail_bound(N, self.sigma) <= tau:
            N = min(N, _n_for_tail(self.sigma, tau))
        return N

    def at(self, N: int) -> Tuple[complex, float]:
        """(main term, bound) at N, for the smaller of the two bounds."""
        absolute = self.w * tail_bound(N, self.sigma) / self._den(math.log(N + 1))
        bound, K = self.explicit(N)
        if not bound < absolute:
            return 0j, absolute
        _, lam, _ = _CACHE.upto(N)
        R = float(np.add.reduce(lam)) - N
        shifts = zip(self.b, self.s) if not self.eta else (
            (1.0, self.s[0] + 2.0 * self.eta * k) for k in range(K))
        return sum(bj * N ** -sj * (N / (sj - 1.0) - R) for bj, sj in shifts), bound


def _cut(s, tol: float, max_n: int, b=(1.0,), eta: float = 0.0) -> Tuple[int, complex, float]:
    """(N, main term, bound) of _Cut(s, b, eta) at its N for tol, capped at max_n."""
    cut = _Cut(s, b, eta)
    N = min(cut.need(tol), int(max_n))
    return (N, *cut.at(N))


def neg_zeta_logderiv(s: complex, tol: float, max_n: int = DEFAULT_MAX_N) -> SeriesValue:
    """-zeta'/zeta(s) as a truncated Lambda series plus its main term, within tol."""
    s = _check_args(("Re(s)", "Im(s)"), s, SERIES_RE_MIN, tol, max_n)
    cut = _Cut([s])
    N = cut.need(tol)
    if N > max_n:
        needs = f"N = {N}" if N <= 10**30 else "N above 10**30"
        raise CapacityError(f"tol {tol:.3g} at Re(s) = {s.real} needs {needs}, above the cap {int(max_n)}")
    main, bound = cut.at(N)
    return SeriesValue(value=_lambda_sum(s, N) + main, tail_bound=bound, N=N)


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta
# ---------------------------------------------------------------------------

_EM_ORDER = 14
# B_0..B_{2*_EM_ORDER}, each the float nearest the exact rational
_BERN = tuple(float(b) for b in _BERNOULLI[: 2 * _EM_ORDER + 1])
# the correction terms' weights B_2j/(2j)! and powers 1 - 2j of N, j = 1.._EM_ORDER
_EM_COEF = np.array([_BERN[2 * j] / math.factorial(2 * j) for j in range(1, _EM_ORDER + 1)])
_EM_EXP = 1.0 - 2.0 * np.arange(1, _EM_ORDER + 1)
_EM_IM_MAX = 1e4
# zeta_em forms its head sums over at most this many (point, n) terms at once
_EM_BLOCK = 1 << 16


def zeta_em(s):
    """zeta(s) by Euler-Maclaurin (Edwards, Riemann's Zeta Function, 6.4),
    relative error <= 1e-12 in the window Re(s) > 1, |Im(s)| <= 1e4.

    s is a complex scalar, which gives a complex, or an array, which gives
    a complex array of its shape.  Each point keeps its own
    N = max(20, int(1.3 |Im s| + 10)):
        zeta(s) = sum_{n<N} n^-s + N^-s (1/2 + N/(s-1)
                  + sum_{j=1}^{_EM_ORDER} B_2j/(2j)! s(s+1)...(s+2j-2) N^(1-2j)).
    The head sums come from (points x max N) arrays of n^-s, at most
    _EM_BLOCK terms each, with the terms n >= N masked out; the correction
    is one (points x _EM_ORDER) product.
    """
    arr = np.asarray(s, dtype=complex)
    s = arr.ravel()
    if not (s.real > 1.0).all():
        raise DomainError("Re(s) must exceed 1")
    if not (np.abs(s.imag) <= _EM_IM_MAX).all():
        raise DomainError(f"|Im(s)| above the desk-scale window {_EM_IM_MAX}")
    N = np.maximum(20, (1.3 * np.abs(s.imag) + 10.0).astype(np.int64))
    n = np.arange(1.0, N.max(initial=20))
    log_n = np.log(n)
    head = np.empty(s.shape, dtype=complex)
    rows = max(1, _EM_BLOCK // len(n))
    for a in range(0, len(s), rows):
        blk = slice(a, a + rows)
        terms = np.exp(np.multiply.outer(-s[blk], log_n))
        terms[n >= N[blk, None]] = 0.0
        head[blk] = terms.sum(axis=1)
    Nf = N.astype(float)
    # s(s+1)...(s+2j-2) for j = 1.._EM_ORDER
    rising = np.cumprod(s[:, None] + np.arange(2 * _EM_ORDER - 1), axis=1)[:, ::2]
    corr = (rising * (_EM_COEF * Nf[:, None] ** _EM_EXP)).sum(axis=1)
    total = head + np.exp(-s * np.log(Nf)) * (0.5 + Nf / (s - 1.0) + corr)
    return complex(total[0]) if arr.ndim == 0 else total.reshape(arr.shape)


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


def _k_sum(z: complex, eta: float, tol: float, max_n: int) -> Tuple[float, float, int]:
    """sum_{k>=1} -Re zeta'/zeta(z + 2k*eta) as (value, achieved error bound, N).

    Summed over k first, the terms of each prime power n form a geometric
    series, so with s = Re z + 2*eta and t = Im z the sum is
    sum_n Lambda(n) cos(t log n) n^(-s) / (1 - n^(-2*eta)), truncated at one
    N, the k-ladder s + it + 2k*eta of _cut, which adds the main term and
    bounds the rest.  Raises DomainError first if the sum leaves the float
    range.
    """
    _check_k_sum_range(z.real, eta)
    s, t = z.real + 2.0 * eta, z.imag
    N, main, bound = _cut([complex(s, t)], tol, max_n, eta=eta)
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
    return float(np.sum(terms)) + main.real, bound, N


def lemma_lhs(z: complex, eta: float, tol: float, max_n: int = DEFAULT_MAX_N) -> Tuple[float, float]:
    """Sum side of the telescoping identity; returns (value, error_bound)."""
    z = _check_args(("Re(z)", "Im(z)"), z, DESK_RE_MIN, tol, max_n, eta)
    return _k_sum(z, eta, tol, max_n)[:2]


def lemma_rhs(z: complex, eta: float, tol: float) -> Tuple[float, float]:
    """Integral side of the telescoping identity; returns (value, error_bound).

    The integrand is log|zeta| on the line Re = Re(z) + eta weighted by
    cosh^-2; |log|zeta(s)|| <= log zeta(Re s) bounds the truncated wings
    via int_{|u|>U} cosh^-2 = 2(1 - tanh U) <= 4 e^{-2U}.  On [-U, U] it
    is (log zeta(z+eta+2i*eta*u/pi) + log zeta(conj z+eta-2i*eta*u/pi)) /
    (2 cosh^2 u); for |Im u| <= _STRIP both real parts are >= x = Re z +
    eta (1 - 2 _STRIP/pi), so it is at most log(x/(x-1)) / cos^2 _STRIP,
    and strip_gauss meets eta*tol with a proven bound (zeta_em's error
    aside).  Raises DomainError if eta is so small that the bound
    log zeta(Re z + eta) / (2*eta) on the value leaves the float range, or
    if the target eta*tol is at or below 2**-52 times the integral's
    bound 2*log zeta(Re z + eta), which floats cannot resolve.
    """
    z = _check_args(("Re(z)", "Im(z)"), z, DESK_RE_MIN, tol, eta=eta)
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
    M = math.log1p(1.0 / (sigma_line - eta * 2.0 * _STRIP / math.pi - 1.0)) / math.cos(_STRIP) ** 2

    def integrand(u):
        return np.log(np.abs(zeta_em(z + eta + 2.0 * eta * 1j * u / math.pi))) / np.cosh(u) ** 2

    val, quad_bound = strip_gauss(integrand, -U, U, _STRIP, M, eta * tol)
    return float(val) / (4.0 * eta), quad_bound / (4.0 * eta) + trunc


def lemma_check(
    z: complex, eta: float, tol: float = 1e-6, max_n: int = DEFAULT_MAX_N
) -> VerificationReport:
    """Two-sided check of the telescoping identity."""
    z = _check_args(("Re(z)", "Im(z)"), z, DESK_RE_MIN, tol, max_n, eta)
    # every refusal before the sieve, the k-sum's own first, as when it ran first
    _check_k_sum_range(z.real, eta)
    rhs, rerr = lemma_rhs(z, eta, tol)
    lhs, lerr, N = _k_sum(z, eta, tol, max_n)
    diff = abs(lhs - rhs)
    return VerificationReport(
        lhs=lhs,
        rhs=rhs,
        abs_diff=diff,
        lhs_error_bound=lerr,
        rhs_error_bound=rerr,
        passed=diff <= tol + lerr + rerr,
        kind="equality",
        params={"z": [z.real, z.imag], "eta": eta, "tol": tol, "max_n": int(max_n), "N": N},
    )


# ---------------------------------------------------------------------------
# Midpoint bound
# ---------------------------------------------------------------------------

def midpoint_bound_check(
    sigma: float, eta: float, tol: float = 1e-6, max_n: int = DEFAULT_MAX_N
) -> VerificationReport:
    """Check sum_{k>=1} -zeta'/zeta(sigma + 2k*eta) < log zeta(sigma+eta) / (2*eta).

    The verdict uses the computed margin.  The sum's error is two-sided
    (the main term of _cut may over- or underestimate the tail), so the
    conservative margin, with both error bounds subtracted, is reported
    separately.
    """
    _check_args(("sigma",), sigma, DESK_RE_MIN, tol, max_n, eta, 1.0)
    lhs, lerr, N = _k_sum(complex(sigma), eta, tol, max_n)
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
            "N": N,
            "margin": margin,
            "conservative_margin": margin - lerr - rerr,
        },
    )


# ---------------------------------------------------------------------------
# Dual-route cosine-weighted sum
# ---------------------------------------------------------------------------

# applied_trig_sum runs both routes over blocks of this many points, which
# bounds the size of each block's temporaries, _eval_cos's among them
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
    truncation N and the main term of the shifts x + ijy (_cut), so they
    agree up to rounding; the bound, summed over the b_j, meets tol unless
    max_n caps N.  Both run over the same
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
    _check_args(("x", "y"), complex(x, y), DESK_RE_MIN, tol, max_n)
    require_nonneg(p)
    b = p.coeffs
    N, main, bound = _cut([complex(x, j * y) for j in range(len(b))], tol, max_n, b)
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
    lhs = sum(bj * float(s) for bj, s in zip(b, terms)) + main.real
    rhs = float(np.sum(sieve_terms)) + main.real
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
