import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetafree import quadrature, zetanum
from zetafree.asymptotics import check_objective_input, compute_M
from zetafree.errors import CapacityError, DomainError, NonnegativityError, QuadratureError
from zetafree.mollifier import _bernoulli
from zetafree.trigpoly import (
    MAX_DEGREE,
    CosinePolynomial,
    ProductForm,
    eval_poly,
    expand_product,
    require_nonneg,
)
from zetafree.zetanum import (
    BUTHE_SQRT,
    BUTHE_X,
    DEFAULT_MAX_N,
    PSI_RATIO,
    _BERN,
    _CACHE,
    _EM_ORDER,
    _EVAL_BLOCK,
    _check_k_sum_range,
    _Cut,
    _cut,
    _k_sum,
    _PrimePowerCache,
    _lambda_sum,
    _n_for_tail,
    _sieve_primes,
    applied_trig_sum,
    lemma_check,
    lemma_lhs,
    lemma_rhs,
    midpoint_bound_check,
    neg_zeta_logderiv,
    tail_bound,
    zeta_em,
)

MAXN = 10**7
D5 = expand_product(ProductForm(1.0, True, (0.8652559, 0.1974476)))
D9 = expand_product(ProductForm(1.0, True, (0.15, 0.45, 0.8, 1.2)))
_D32_TAIL = np.random.default_rng(0).uniform(-1.0, 1.0, MAX_DEGREE).tolist()
D32 = CosinePolynomial((0.5 + sum(abs(c) for c in _D32_TAIL), *_D32_TAIL))


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------

def _lambda_bruteforce(n):
    # factor n; log p if prime power, else 0
    for p in range(2, int(n**0.5) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return math.log(p) if n == 1 else 0.0
    return math.log(n)  # n prime


def _cached_lambda(N):
    """Lambda(n) for n <= N from the prime-power cache, as {n: Lambda(n)}."""
    n, lam, _ = _CACHE.upto(N)
    return dict(zip(n.astype(int).tolist(), lam.tolist()))


def test_lambda_prime_power():
    table = _cached_lambda(20)
    assert table[8] == pytest.approx(math.log(2), rel=1e-15)
    assert table[9] == pytest.approx(math.log(3), rel=1e-15)
    assert 12 not in table


def test_psi_100_vs_bruteforce():
    psi = sum(_cached_lambda(100).values())
    brute = sum(_lambda_bruteforce(n) for n in range(2, 101))
    assert psi == pytest.approx(brute, rel=1e-13)
    assert psi == pytest.approx(94.045, abs=5e-3)


def test_lambda_table_vs_bruteforce():
    table = _cached_lambda(2000)
    for n in range(2, 2001):
        brute = _lambda_bruteforce(n)
        assert abs(table.get(n, 0.0) - brute) <= 1e-15 * brute


def test_lambda_upper_bound():
    n, lam, log_n = _CACHE.upto(500)
    assert np.all(np.diff(n) > 0) and n[-1] <= 500
    assert np.array_equal(log_n, np.log(n))
    assert np.all(lam <= log_n + 1e-12)


def _sieve_primes_full(limit):
    """Primes <= limit from a sieve over every integer."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.nonzero(is_prime)[0]


def _table_by_argsort(limit):
    """(n, Lambda(n), log n) up to limit, as the table was once built: the primes
    and each power k >= 2 concatenated, then put in order by a stable argsort."""
    primes = _sieve_primes_full(limit)
    ns = [primes.astype(np.float64)]
    lams = [np.log(primes)]
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
    return n[order], lam[order], np.log(n[order])


def _assert_table_equals_argsort_build(cache, limit):
    for got, want in zip((cache.n, cache.lam, cache.log_n), _table_by_argsort(limit)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("limit", list(range(65)) + [10**5])
def test_prime_power_table_equals_argsort_build(limit):
    assert np.array_equal(_sieve_primes(limit), _sieve_primes_full(limit))
    cache = _PrimePowerCache()
    cache.ensure(limit)
    assert cache.limit == limit
    _assert_table_equals_argsort_build(cache, limit)


def test_prime_power_table_grown_equals_argsort_build():
    cache = _PrimePowerCache()
    cache.ensure(100)
    cache.ensure(150)  # doubles to 200
    assert cache.limit == 200
    _assert_table_equals_argsort_build(cache, 200)
    cache.ensure(10**4)
    assert cache.limit == 10**4
    _assert_table_equals_argsort_build(cache, 10**4)
    n, lam, log_n = cache.upto(5000)
    assert n[-1] == 4999 and len(n) == len(lam) == len(log_n)


def test_prime_power_table_doubles_up_to_the_next_power_of_ten():
    cache = _PrimePowerCache()
    cache.ensure(600)
    cache.ensure(700)  # past half of 1000, so to 1000, where doubling would give 1200
    assert cache.limit == 1000
    _assert_table_equals_argsort_build(cache, 1000)
    cache.ensure(1001)
    assert cache.limit == 2000
    cache.ensure(4000)
    assert cache.limit == 4000
    cache.ensure(4001)  # 8000, below half of 10**4
    assert cache.limit == 8000
    _assert_table_equals_argsort_build(cache, 8000)


# ---------------------------------------------------------------------------
# Dirichlet series
# ---------------------------------------------------------------------------

def test_logderiv_at_two_vs_highprec():
    ref = complex(-mp.zeta(2, derivative=1) / mp.zeta(2))
    got = neg_zeta_logderiv(2.0 + 0j, 1e-6)
    assert abs(got.value - ref) <= 1e-6 + got.tail_bound


def test_logderiv_far_right():
    got = neg_zeta_logderiv(20.0 + 0j, 1e-10)
    assert got.value.real == pytest.approx(math.log(2) / 2**20, abs=1e-8)


def test_logderiv_conjugate_symmetry():
    s = 2.0 + 9.3j
    a = neg_zeta_logderiv(s, 1e-5).value
    b = neg_zeta_logderiv(s.conjugate(), 1e-5).value
    assert a == pytest.approx(b.conjugate(), abs=1e-14)


def test_logderiv_domain_and_capacity():
    with pytest.raises(DomainError):
        neg_zeta_logderiv(1.05 + 0j, 1e-3)
    with pytest.raises(CapacityError):
        neg_zeta_logderiv(1.2 + 0j, 1e-9, max_n=10**5)


def test_tail_bound_is_genuine():
    # refine tol 10x: result moves by less than the previous bound
    s = 1.8 + 3j
    coarse = neg_zeta_logderiv(s, 1e-4)
    fine = neg_zeta_logderiv(s, 1e-5)
    assert abs(coarse.value - fine.value) <= coarse.tail_bound
    assert (coarse.N, coarse.tail_bound) == _cut([s], 1e-4, DEFAULT_MAX_N)[::2]


def test_capacity_error_names_the_n_the_tolerance_needs():
    N = _Cut([2.0]).need(1e-9)
    assert _Cut([2.0]).at(N)[1] <= 1e-9 < _Cut([2.0]).at(N - 1)[1]
    for max_n in (10**5, 1e5):  # a whole float cap reads as the integer
        with pytest.raises(CapacityError, match=f"needs N = {N}, above the cap 100000$"):
            neg_zeta_logderiv(2.0, 1e-9, max_n=max_n)
    # here the explicit bound's floor is above tol and the absolute bound
    # needs N of about 10**49, above 10**30, so the message does not spell it out
    assert _Cut([1.2]).F > 1e-9
    assert _Cut([1.2]).need(1e-9) == _n_for_tail(1.2, 1e-9) > 10**30
    with pytest.raises(CapacityError, match=r"needs N above 10\*\*30, above the cap 100000"):
        neg_zeta_logderiv(1.2, 1e-9, max_n=10**5)


@settings(max_examples=60, deadline=None)
@given(st.floats(1.001, 30.0, exclude_min=True), st.floats(1e-12, 10.0))
@example(3.0, 10.0)  # tail_bound(1, 3.0) = 0.25, so N = 1
@example(1.0010000000000001, 1e-12)
@example(1.25, 1e-12)
def test_n_for_tail_is_the_smallest_n(sigma, tol):
    N = _n_for_tail(sigma, tol)
    assert N >= 1 and tail_bound(N, sigma) <= tol
    assert N == 1 or tol < tail_bound(N - 1, sigma)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**9), st.floats(1.1, 30.0))
@example(MAXN, 2.0)  # the benchmark's warm-up builds the 10**7 table this way
def test_n_for_tail_inverts_tail_bound(N, sigma):
    assert _n_for_tail(sigma, tail_bound(N, sigma)) == N


def _old_tail_bound(N, sigma):
    """The bound from Lambda(n) <= log n alone: N^(1-sigma) (log N/(sigma-1) + 1/(sigma-1)^2)."""
    d = sigma - 1.0
    return N ** (-d) * (math.log(N) / d + 1.0 / d**2)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**15), st.floats(1.001, 30.0))
@example(2, 2.0)
@example(10, 3.0)
@example(10**6, 20.0)
def test_tail_bound_is_never_above_the_log_n_bound(N, sigma):
    assert tail_bound(N, sigma) <= _old_tail_bound(N, sigma)


def test_tail_bound_is_the_psi_bound_at_large_n():
    for N, sigma in ((32561, 1.75), (10**7, 1.5), (10**7, 2.0)):
        assert tail_bound(N, sigma) == N ** (1.0 - sigma) * (PSI_RATIO * sigma / (sigma - 1.0))
        assert tail_bound(N, sigma) < _old_tail_bound(N, sigma) / 5.0
    # at tol 1e-3 the log n bound alone needs N = 518,512 at 1.75 and about 2.2e9 at 1.5
    assert _n_for_tail(1.75, 1e-3) == 32561
    assert _n_for_tail(1.5, 1e-3) == 9712510


def test_psi_ratio_bounds_psi_at_every_prime_power_to_1e7():
    # psi(x)/x is largest just after a jump, so the prime powers cover every x <= 10**7
    n, lam, _ = _CACHE.upto(MAXN)
    ratio = np.cumsum(lam) / n
    assert ratio.max() <= PSI_RATIO
    assert n[np.argmax(ratio)] == 113
    assert ratio.max() > PSI_RATIO - 1e-5


def test_buthe_bounds_psi_on_both_sides_of_every_jump_to_1e8():
    # psi is constant between jumps, so (psi - x)^2 - BUTHE_SQRT^2 x, convex
    # in x, is largest at an end: just after a jump, psi(n) - n, or just
    # before the next one, psi(previous) - n.  x runs over (11, 10**8].
    cache = _PrimePowerCache()  # its own table, freed after the test
    cache.ensure(10**8)
    n, psi = cache.n, np.cumsum(cache.lam)
    worst = 0.0
    for a in range(0, len(n), 1 << 20):
        blk = slice(a, a + (1 << 20))
        root = np.sqrt(n[blk])
        after = np.where(n[blk] >= 11, np.abs(psi[blk] - n[blk]) / root, 0.0)
        psi_before = np.concatenate(([psi[a - 1] if a else 0.0], psi[blk][:-1]))
        before = np.where(n[blk] > 11, np.abs(psi_before - n[blk]) / root, 0.0)
        worst = max(worst, after.max(), before.max())
    assert n[-1] <= 10**8 < n[-1] + 30
    assert worst <= BUTHE_SQRT
    # the largest ratio is 0.852, just below the jump at 17: psi(16) = log lcm(1..16)
    assert worst == pytest.approx((17 - math.log(720720)) / math.sqrt(17), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(1.25, 3.0), st.integers(10, 10**6))
@example(1.25, 10)
@example(1.25, 113)
@example(3.0, 10)
@example(3.0, 10**6)
def test_tail_bound_covers_the_exact_tail_to_1e7(sigma, N):
    n, lam, log_n = _CACHE.upto(MAXN)
    above = n > N
    exact = math.fsum(lam[above] * np.exp(-sigma * log_n[above]))
    assert exact + tail_bound(MAXN, sigma) <= tail_bound(N, sigma)


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta
# ---------------------------------------------------------------------------

def test_bernoulli_numbers_equal_mpmath():
    assert _bernoulli(32) == [Fraction(*mp.bernfrac(n)) for n in range(33)]


def test_bernoulli_numbers_correctly_rounded():
    for j in range(1, _EM_ORDER + 1):
        assert _BERN[2 * j] == float(Fraction(*mp.bernfrac(2 * j))), 2 * j


def test_zeta_two():
    assert zeta_em(2.0 + 0j).real == pytest.approx(math.pi**2 / 6.0, rel=1e-12)


def test_zeta_real_axis_decreasing():
    vals = [zeta_em(complex(s)).real for s in (1.1, 1.5, 2.0, 3.0, 5.0)]
    assert all(v > 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_zeta_frozen_complex_point():
    got = zeta_em(1.5 + 10j)
    assert got.real == pytest.approx(1.2783911664347597, rel=1e-12)
    assert got.imag == pytest.approx(-0.0957240559867089, rel=1e-10)


def test_zeta_against_mpmath_grid():
    rng = np.random.default_rng(2)
    for _ in range(10):
        s = complex(rng.uniform(1.05, 4.0), rng.uniform(-100, 100))
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        assert abs(zeta_em(s) - ref) <= 1e-12 * abs(ref)


def test_zeta_window_errors():
    with pytest.raises(DomainError):
        zeta_em(0.9 + 2j)
    with pytest.raises(DomainError):
        zeta_em(1.5 + 2e4j)


def test_zeta_em_array_window_errors():
    with pytest.raises(DomainError, match=r"^Re\(s\) must exceed 1$"):
        zeta_em(np.array([2.0, 1.0 + 5j]))
    with pytest.raises(DomainError, match=r"^\|Im\(s\)\| above the desk-scale window 10000.0$"):
        zeta_em(np.array([2.0, 1.5 - 2e4j]))


# (Re s, Im s) in the window of the mpmath test: Re s in (1, 4], |Im s| <= 1e3
_EM_LOW = st.tuples(st.floats(1.0, 4.0, exclude_min=True), st.floats(-5.0, 5.0))
_EM_HIGH = st.tuples(st.floats(1.0, 4.0, exclude_min=True), st.floats(-1e3, 1e3))


@settings(max_examples=25, deadline=None)
@given(_EM_LOW, st.lists(_EM_HIGH, min_size=1, max_size=4))
@example((1.0000001, 0.0), [(1.0111881864862275, -575.3937876096602), (4.0, 1e3), (1.5, -1e3)])
def test_zeta_em_array_against_mpmath(low, high):
    # a point at N = 20 beside points whose N reaches 1310, in one call
    s = np.array([complex(*low)] + [complex(*p) for p in high])
    got = zeta_em(s)
    assert got.shape == s.shape
    with mp.workdps(30):
        for point, value in zip(s, got):
            ref = complex(mp.zeta(mp.mpc(point.real, point.imag)))
            assert abs(value - ref) <= 1e-12 * abs(ref), point


def _zeta_em_loop(s):
    """zeta_em's Euler-Maclaurin sum for one point, term by term in Python complex
    arithmetic, as zeta_em computed it before it took arrays."""
    N = int(max(20, 1.3 * abs(s.imag) + 10))
    total = complex(np.sum(np.exp(-s * np.log(np.arange(1, N)))))
    total += 0.5 * N ** (-s)
    total += N ** (1.0 - s) / (s - 1.0)
    prod, fact = s, 2.0
    for j in range(1, _EM_ORDER + 1):
        if j > 1:
            prod = prod * (s + 2 * j - 3) * (s + 2 * j - 2)
            fact *= (2 * j) * (2 * j - 1)
        total += _BERN[2 * j] / fact * prod * N ** (-s - 2 * j + 1)
    return total


def test_zeta_em_array_matches_scalar_calls():
    rng = np.random.default_rng(3)
    # 60 points with N up to about 1300 take two head-sum blocks of _EM_BLOCK terms
    s = rng.uniform(1.01, 4.0, 60) + 1j * rng.uniform(-1e3, 1e3, 60)
    s[::3] = rng.uniform(1.01, 4.0, 20) + 1j * rng.uniform(-5.0, 5.0, 20)
    assert len(s) * 1300 > zetanum._EM_BLOCK
    got = zeta_em(s)
    for point, value in zip(s, got):
        want = zeta_em(complex(point))
        assert type(want) is complex
        assert abs(value - want) <= 1e-14 * abs(want), point
        loop = _zeta_em_loop(complex(point))
        assert abs(want - loop) <= 1e-14 * abs(loop), point
    assert np.array_equal(zeta_em(s.reshape(3, 20)), got.reshape(3, 20))
    assert zeta_em(np.array([], dtype=complex)).shape == (0,)


# ---------------------------------------------------------------------------
# telescoping identity
# ---------------------------------------------------------------------------

def test_lemma_two_sided_sample():
    report = lemma_check(1.5 + 10j, 0.25, tol=1e-3, max_n=MAXN)
    assert report.passed
    assert report.abs_diff <= report.lhs_error_bound + report.rhs_error_bound + 1e-3


def test_lemma_large_eta_is_tiny():
    val, err = lemma_lhs(1.5 + 0j, 50.0, 1e-8, max_n=MAXN)
    assert abs(val) <= 2 * math.log(2) * 2.0**-101 + err
    assert abs(val) <= 1e-8


def test_lemma_real_axis_positive_terms():
    val, _ = lemma_lhs(1.5 + 0j, 0.3, 1e-6, max_n=MAXN)
    assert val > 0.0


def test_lemma_rhs_real_point_sign():
    val, err = lemma_rhs(3.0 + 0j, 0.5, 1e-6)
    assert val > err  # log zeta > 0 dominates on the line Re = 3.5


def test_lemma_rhs_raises_when_quadrature_misses_tol(monkeypatch):
    # the rule for tol 1e-6 needs more than 8 nodes on every panel count
    monkeypatch.setattr(quadrature, "STRIP_NODES", 8)
    with pytest.raises(QuadratureError, match=r"tol 2.5e-07 needs \d+ > 8 nodes per panel"):
        lemma_rhs(1.5 + 10j, 0.25, 1e-6)


@pytest.mark.parametrize("args, points", [
    ((1.5 + 10j, 0.25, 1e-3), 25),
    ((2.0 + 20j, 0.5, 1e-6), 56),
    ((1.3 + 0j, 0.1, 1e-3), 31),
    ((1.25 + 5j, 0.05, 1e-6), 82),
])
def test_lemma_rhs_makes_one_zeta_em_array_call(monkeypatch, args, points):
    # one scalar call for the wing bound, then one call on all panels x nodes
    seen, rules = [], []
    em, legendre = zetanum.zeta_em, quadrature._legendre

    def counted(s):
        seen.append(np.shape(s))
        return em(s)

    def rule(n):
        rules.append(n)
        return legendre(n)

    monkeypatch.setattr(zetanum, "zeta_em", counted)
    monkeypatch.setattr(quadrature, "_legendre", rule)
    lemma_rhs(*args)
    assert seen == [(), (points,)]
    (n,) = rules
    assert points % n == 0 and 1 <= points // n <= quadrature.STRIP_PANELS


@settings(max_examples=8, deadline=None)
@given(st.floats(1.25, 3.0), st.floats(-20.0, 20.0), st.floats(0.05, 0.5),
       st.sampled_from([1e-3, 1e-6]))
@example(1.25, 20.0, 0.05, 1e-6)
def test_lemma_rhs_holds_its_bound_against_mpmath(sigma, t, eta, tol):
    value, bound = lemma_rhs(complex(sigma, t), eta, tol)
    assert bound <= 0.75 * tol
    # beyond |u| = 36 the integral is below 4 log zeta(1.25) e^-72, about 1e-31
    with mp.workdps(30):
        line, step = mp.mpc(sigma + eta, t), 2j * eta / mp.pi
        exact = mp.quad(lambda u: mp.log(abs(mp.zeta(line + step * u))) / mp.cosh(u) ** 2,
                        [-36, -12, -4, 0, 4, 12, 36], method="gauss-legendre") / (4 * eta)
    assert abs(value - float(exact)) <= bound


def _numpy_free(value):
    """True if value is a Python float, int, bool or str, or a list of them."""
    if isinstance(value, list):
        return all(_numpy_free(v) for v in value)
    return type(value) in (float, int, bool, str)


def test_reports_hold_python_floats_and_bools():
    reports = (
        lemma_check(1.5 + 10j, 0.25, tol=1e-3, max_n=MAXN),
        midpoint_bound_check(1.5, 0.1, tol=1e-4, max_n=MAXN),
        applied_trig_sum(CosinePolynomial((3.0, 4.0, 1.0)), 1.5, 14.13, tol=1e-3, max_n=MAXN),
    )
    for report in reports:
        assert report.passed is True
        for name in ("lhs", "rhs", "abs_diff", "lhs_error_bound", "rhs_error_bound"):
            assert type(getattr(report, name)) is float, (report.kind, name)
        assert all(_numpy_free(v) for v in report.params.values()), report.params
    assert all(type(v) is float for v in lemma_rhs(1.5 + 10j, 0.25, 1e-3))


def test_lemma_rhs_constant_weight_mass():
    # int cosh^-2 = 2, so a constant integrand c integrates to c/(2*eta); the
    # weight alone is at most cos^-2 on lemma_rhs's strip
    strip = zetanum._STRIP
    val, bound = quadrature.strip_gauss(lambda u: 1.0 / np.cosh(u) ** 2, -20.0, 20.0,
                                        strip, 1.0 / math.cos(strip) ** 2, 1e-12)
    assert bound <= 1e-12
    assert abs(val - 2.0 * math.tanh(20.0)) <= bound + 2e-12  # rounding, as in test_quadrature


# ---------------------------------------------------------------------------
# midpoint bound
# ---------------------------------------------------------------------------

def test_midpoint_examples():
    for sigma, eta in ((1.3, 0.1), (2.0, 0.5)):
        report = midpoint_bound_check(sigma, eta, tol=1e-4, max_n=MAXN)
        assert report.passed
        assert report.params["margin"] > 0


def test_midpoint_rejects_bad_inputs():
    with pytest.raises(DomainError):
        midpoint_bound_check(1.1, 0.1)
    with pytest.raises(ValueError):
        midpoint_bound_check(1.5, 1.5)


# ---------------------------------------------------------------------------
# dual-route cosine-weighted sum
# ---------------------------------------------------------------------------

def test_applied_trig_classical():
    report = applied_trig_sum(CosinePolynomial((3.0, 4.0, 1.0)), 1.3, 14.13,
                              tol=1e-4, max_n=MAXN)
    assert report.passed
    assert report.abs_diff <= 1e-4 + report.lhs_error_bound + report.rhs_error_bound
    assert report.rhs >= -report.rhs_error_bound


def test_applied_trig_y_zero():
    p = CosinePolynomial((3.0, 4.0, 1.0))
    report = applied_trig_sum(p, 2.0, 0.0, tol=1e-5, max_n=MAXN)
    single = neg_zeta_logderiv(2.0 + 0j, 1e-5)
    assert report.lhs == pytest.approx(8.0 * single.value.real, abs=1e-4 + 8 * single.tail_bound)
    assert report.lhs > 0


def test_applied_trig_effectively_constant():
    # b = (1, 0): the weight polynomial is the constant 1
    report = applied_trig_sum(CosinePolynomial((1.0, 0.0)), 2.0, 3.0,
                              tol=1e-5, max_n=MAXN)
    single = neg_zeta_logderiv(2.0 + 0j, 1e-5)
    assert report.rhs == pytest.approx(single.value.real, abs=1e-4 + single.tail_bound)
    assert report.rhs > 0


def _check_random_agreement(p):
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rng.uniform(1.25, 3.0)
        y = rng.uniform(0.0, 50.0)
        report = applied_trig_sum(p, x, y, tol=1e-3, max_n=MAXN)
        assert report.passed
        assert report.abs_diff <= 1e-9 * max(1.0, abs(report.lhs))  # same truncation: rounding only


def test_applied_trig_random_agreement():
    _check_random_agreement(CosinePolynomial((3.0, 4.0, 1.0)))


@pytest.mark.parametrize("p", [D5, D9], ids=["d5_optimum", "d9_product"])
def test_applied_trig_random_agreement_higher_degree(p):
    assert len(p.coeffs) - 1 in (5, 9)
    _check_random_agreement(p)


# ---------------------------------------------------------------------------
# real-arithmetic kernels against the complex Lambda series
# ---------------------------------------------------------------------------

_KTAIL_C = 4.0 * math.log(2.0)  # majorant constant: -zeta'/zeta(sigma) <= C*2^-sigma, sigma >= 2.5


def _k_sum_complex(z, eta, tol, max_n):
    """The k-sum as one complex Lambda series per term, as _k_sum once computed
    it: (terms, N_k, error bound, K, sum of Lambda(n) n^-sigma_k over the terms)."""
    sigma = z.real
    r = min(2.0 ** (-2.0 * eta), 0.98)
    K = 1
    while True:
        sig_next = sigma + 2.0 * (K + 1) * eta
        if sig_next >= 2.5:
            ktail = _KTAIL_C * 2.0 ** (-sig_next) / (1.0 - 2.0 ** (-2.0 * eta))
            if ktail <= tol / 2.0:
                break
        K += 1
    terms, Ns, err, scale = [], [], ktail, 0.0
    for k in range(1, K + 1):
        sig_k = sigma + 2.0 * k * eta
        N_k = min(_n_for_tail(sig_k, (tol / 2.0) * (1.0 - r) * r ** (k - 1)), max_n)
        terms.append(_lambda_sum(z + 2.0 * k * eta, N_k).real)
        Ns.append(N_k)
        scale += _lambda_sum(sig_k, N_k).real
        err += tail_bound(N_k, sig_k)
    return terms, Ns, err, K, scale


def _k_sum_bound(sigma, eta, N):
    """The closed form's absolute bound: tail_bound(N, s) / (1 - (N+1)^(-2*eta)), s = sigma + 2*eta."""
    return tail_bound(N, sigma + 2.0 * eta) / -math.expm1(-2.0 * eta * math.log(N + 1))


def _ladder(z, eta):
    """The _Cut of the k-sum at z: the shifts z + 2k*eta, k >= 1."""
    return _Cut([z + 2.0 * eta], eta=eta)


_SIGMA = st.floats(1.25, 3.0)
_T = st.floats(0.0, 60.0)
_N = st.integers(2, 10**6)
_TOL = st.sampled_from([1e-3, 1e-6, 1e-10])


@settings(max_examples=40, deadline=None)
@given(_SIGMA, _T, _N, st.floats(0.05, 0.5), _TOL)
@example(1.25, 0.0, 10**6, 0.1, 1e-10)
@example(1.3, 14.13, 10**6, 0.05, 1e-3)
def test_k_sum_matches_complex_series(sigma, t, N, eta, tol):
    z = complex(sigma, t)
    terms, _, err_ref, _, scale = _k_sum_complex(z, eta, tol, N)
    total, got_err, N_used = _k_sum(z, eta, tol, N)
    assert N_used == min(_ladder(z, eta).need(tol), N)
    assert got_err == _ladder(z, eta).at(N_used)[1] <= _k_sum_bound(sigma, eta, N_used)
    assert N_used == N or got_err <= tol
    assert abs(total - math.fsum(terms)) <= err_ref + got_err + 1e-13 * scale


def _k_sum_by_terms(z, eta, N):
    """sum over k >= 1 of Re sum_{n <= N} Lambda(n) n^-(z + 2k*eta), up to the
    first term below 1e-18.  Each term is one row of a (k x n) array, whose
    entries Lambda(n) cos(t log n) n^-(Re z + 2k*eta) are summed in blocks."""
    _, lam, log_n = _CACHE.upto(N)
    head = lam * np.cos(z.imag * log_n) * np.exp(-z.real * log_n)
    terms = []
    while not terms or abs(terms[-1]) >= 1e-18:
        k = len(terms) + 1 + np.arange(64)
        rows = np.zeros(len(k))
        for a in range(0, len(head), 4096):
            rows += np.exp(np.multiply.outer(-2.0 * eta * k, log_n[a : a + 4096])) @ head[a : a + 4096]
        small = np.flatnonzero(np.abs(rows) < 1e-18)
        terms.extend(rows[: small[0] + 1] if len(small) else rows)
    return math.fsum(terms)


@settings(max_examples=40, deadline=None)
@given(_SIGMA, _T, st.floats(0.05, 0.5), _N)
@example(1.25, 0.0, 0.05, 10**6)
@example(1.3, 14.13, 0.5, 2)
def test_k_sum_closed_form_matches_per_k_series(sigma, t, eta, N):
    z = complex(sigma, t)
    # at this tol every N is capped, so both sides sum the same prime powers
    total, err, N_used = _k_sum(z, eta, 1e-300, N)
    assert N_used == N
    _, main, bound = _cut([z + 2.0 * eta], 1e-300, N, eta=eta)
    assert err == bound <= _k_sum_bound(sigma, eta, N)
    _, lam, log_n = _CACHE.upto(N)
    scale = float(np.sum(lam * np.exp(-sigma * log_n) / np.expm1(2.0 * eta * log_n)))
    # the main term of the cut enters once, with the rounding of one addition
    want = _k_sum_by_terms(z, eta, N) + main.real
    assert abs(total - want) <= 1e-13 * scale + 2.0**-52 * abs(want)


@pytest.mark.parametrize("max_n", [MAXN, 100])
def test_k_sum_checks_report_their_truncation_n(max_n):
    sigma, t, eta, tol = 1.5, 10.0, 0.25, 1e-3
    lemma = lemma_check(complex(sigma, t), eta, tol=tol, max_n=max_n)
    midpoint = midpoint_bound_check(sigma, eta, tol=tol, max_n=max_n)
    assert lemma.lhs == lemma_lhs(complex(sigma, t), eta, tol, max_n)[0]
    # the explicit bound grows with |Im z|, so the two N differ
    for report, z in ((lemma, complex(sigma, t)), (midpoint, complex(sigma))):
        N, cut = report.params["N"], _ladder(z, eta)
        assert report.lhs_error_bound == cut.at(N)[1]
        if max_n == 100:
            assert N == 100
        else:
            # the smallest N whose bound meets tol, which the explicit bound sets
            assert cut.at(N)[1] <= tol < cut.at(N - 1)[1]
            assert cut.at(N)[1] == cut.explicit(N)[0] < _k_sum_bound(z.real, eta, N)


def test_lemma_lhs_small_eta_reports_its_bound():
    value, err = lemma_lhs(1.5, 1e-4, 1e-3, max_n=10**5)
    assert math.isfinite(value) and math.isfinite(err)
    assert err == _k_sum_bound(1.5, 1e-4, 10**5)


@settings(max_examples=40, deadline=None)
@given(_SIGMA, _T, _N, _TOL, st.sampled_from([CosinePolynomial((3.0, 4.0, 1.0)), D5, D9]))
@example(2.0, 0.0, 10**6, 1e-10, D9)
def test_dirichlet_route_matches_complex_series(x, y, N, tol, p):
    report = applied_trig_sum(p, x, y, tol=tol, max_n=N)
    b = p.coeffs
    N_used, main, bound = _cut(_trig_shifts(b, x, y), tol, N, b)
    oracle = math.fsum(bj * _lambda_sum(complex(x, j * y), N_used).real for j, bj in enumerate(b))
    scale = sum(abs(bj) for bj in b) * _lambda_sum(x, N_used).real
    assert report.params["N"] == N_used
    assert report.lhs_error_bound == report.rhs_error_bound == bound <= (
        sum(abs(bj) for bj in b) * tail_bound(N_used, x))
    assert N_used == N or bound <= tol
    assert abs(report.lhs - (oracle + main.real)) <= 1e-13 * scale + 2.0**-52 * abs(report.lhs)


def _trig_shifts(b, x, y):
    """applied_trig_sum's shifts x + ijy, j = 0..d."""
    return [complex(x, j * y) for j in range(len(b))]


def _trig_main(p, x, y, tol, N):
    """The real part of the main term applied_trig_sum adds to both routes."""
    return _cut(_trig_shifts(p.coeffs, x, y), tol, N, p.coeffs)[1].real


# ---------------------------------------------------------------------------
# the explicit-formula cut against mpmath
# ---------------------------------------------------------------------------

def _mp_neg_logderiv(s):
    """-zeta'/zeta(s) at 30 digits, as a complex."""
    with mp.workdps(30):
        z = mp.mpc(s.real, s.imag)
        return complex(-mp.zeta(z, derivative=1) / mp.zeta(z))


_MP_TOL = st.sampled_from([1e-3, 1e-6])
# the float sums' rounding, far below every bound
_ROUNDING = 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(1.25, 3.0), st.floats(-50.0, 50.0), _MP_TOL)
@example(1.25, 0.0, 1e-6)
@example(1.5, 0.0, 1e-6)
@example(1.3, 14.13, 1e-3)
def test_corrected_series_is_within_its_bound_of_mpmath(sigma, t, tol):
    s = complex(sigma, t)
    N, main, bound = _cut([s], tol, MAXN)
    value = _lambda_sum(s, N) + main
    if N < MAXN:
        assert neg_zeta_logderiv(s, tol, max_n=MAXN) == zetanum.SeriesValue(value, bound, N)
    assert N == MAXN or bound <= tol
    assert abs(value - _mp_neg_logderiv(s)) <= bound + _ROUNDING


@settings(max_examples=12, deadline=None)
@given(st.floats(1.25, 3.0), st.floats(-50.0, 50.0), st.floats(0.05, 0.5), _MP_TOL)
@example(1.3, 10.0, 0.1, 1e-6)
@example(1.25, 0.0, 0.05, 1e-3)
def test_corrected_k_sum_is_within_its_bound_of_mpmath(sigma, t, eta, tol):
    z = complex(sigma, t)
    value, bound, N = _k_sum(z, eta, tol, MAXN)
    assert N == MAXN or bound <= tol
    # mpmath for Re < 4; beyond, the series to 10**5, whose tails are below 1e-14 there
    k0 = math.ceil((4.0 - sigma) / (2.0 * eta))
    head = sum(_mp_neg_logderiv(z + 2.0 * k * eta).real for k in range(1, k0))
    rest = _k_sum_by_terms(z + 2.0 * (k0 - 1) * eta, eta, 10**5)
    assert abs(value - head - rest) <= bound + _ROUNDING


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([CosinePolynomial((3.0, 4.0, 1.0)), D5]), st.floats(1.25, 3.0),
       st.floats(-50.0, 50.0), _MP_TOL)
@example(CosinePolynomial((3.0, 4.0, 1.0)), 1.3, 14.13, 1e-3)
def test_corrected_applied_trig_sum_is_within_its_bound_of_mpmath(p, x, y, tol):
    report = applied_trig_sum(p, x, y, tol=tol, max_n=MAXN)
    assert report.params["N"] == MAXN or report.lhs_error_bound <= tol
    exact = sum(bj * _mp_neg_logderiv(complex(x, j * y)).real for j, bj in enumerate(p.coeffs))
    assert abs(report.lhs - exact) <= report.lhs_error_bound + _ROUNDING
    assert abs(report.rhs - exact) <= report.rhs_error_bound + _ROUNDING


@settings(max_examples=40, deadline=None)
@given(st.floats(1.1, 30.0), st.floats(-50.0, 50.0), st.integers(1, MAXN),
       st.floats(1e-6, 2.0), st.sampled_from([CosinePolynomial((3.0, 4.0, 1.0)), D5, D32]))
@example(1.25, 0.0, 11, 0.1, D5)
@example(1.25, 0.0, 12, 0.1, D5)
@example(1.3, 14.13, MAXN, 0.1, CosinePolynomial((3.0, 4.0, 1.0)))
@example(20.0, 0.0, 12, 1.0, CosinePolynomial((3.0, 4.0, 1.0)))
def test_reported_bound_is_never_above_the_absolute_one(sigma, t, N, eta, p):
    # at tol 1e-300 every N is capped, so each cut sits at N
    s = complex(sigma, t)
    assert _cut([s], 1e-300, N)[2] <= tail_bound(N, sigma)
    assert _cut([s + 2.0 * eta], 1e-300, N, eta=eta)[2] <= _k_sum_bound(sigma, eta, N)
    b = p.coeffs
    weight = sum(abs(bj) for bj in b)
    assert _cut(_trig_shifts(b, sigma, t), 1e-300, N, b)[2] <= weight * tail_bound(N, sigma)


def test_explicit_cut_needs_far_fewer_prime_powers():
    # (shift, tol, N): the absolute bound alone needs about 7.3e14, 9.7e12,
    # 1.5e12 and 2.1e6
    for s, tol, N in ((1.25, 1e-3, 23086), (1.5, 1e-6, 1412286),
                      (1.3 + 14.13j, 1e-3, 191641), (2.0, 1e-6, 11625)):
        assert _Cut([s]).need(tol) == N
        assert _n_for_tail(s.real, tol) > 2e6
    # both bounds need N >= 12, so a tol met below that keeps the absolute cut
    assert _Cut([20.0]).need(1e-10) == _n_for_tail(20.0, 1e-10) < 12
    # the floor above N = 10**19 is 1.6e-4 at sigma = 1.25: a tol below it keeps the absolute cut
    assert 1e-4 < _Cut([1.25]).F < 2e-4
    assert _Cut([1.25]).need(1e-4) == _n_for_tail(1.25, 1e-4)


def test_verifiers_meet_tol_near_the_window_edge():
    report = applied_trig_sum(CosinePolynomial((3.0, 4.0, 1.0)), 1.3, 14.13, tol=1e-3, max_n=MAXN)
    assert report.passed and report.lhs_error_bound <= 1e-3 and report.params["N"] <= 3 * 10**6
    _, err = lemma_lhs(1.3 + 10j, 0.1, 1e-6, max_n=MAXN)
    assert err <= 1e-6
    # at the cap the smaller bound is reported: 0.02 where the absolute one is 0.74
    report = applied_trig_sum(CosinePolynomial((3.0, 4.0, 1.0)), 1.25, 49.9, tol=1e-3, max_n=MAXN)
    assert report.params["N"] == MAXN and report.passed
    assert report.lhs_error_bound < 0.05 < 8.0 * tail_bound(MAXN, 1.25)


def _dirichlet_per_j(b, x, y, N):
    """The Dirichlet route as one np.cos(j y log n) over the whole prefix per
    j >= 1, as applied_trig_sum once computed it: (lhs, sum of the weights)."""
    _, lam, log_n = _CACHE.upto(N)
    weights = lam * np.exp(-x * log_n)
    lhs = sum(
        bj * float(np.sum(weights if j == 0 or y == 0 else weights * np.cos(j * y * log_n)))
        for j, bj in enumerate(b)
    )
    return lhs, float(np.sum(weights))


# N with exactly two blocks of prime powers, so the last block is full
_TWO_BLOCKS_N = 1_738_427


@st.composite
def _dominated_poly(draw):
    """A cosine polynomial of degree <= MAX_DEGREE, any signs, b_0 >= sum_{j>=1} |b_j|."""
    d = draw(st.integers(1, MAX_DEGREE))
    tail = draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))
    return CosinePolynomial((0.5 + sum(abs(c) for c in tail), *tail))


@settings(max_examples=30, deadline=None)
@given(_dominated_poly(), st.floats(1.25, 3.0), st.floats(0.0, 50.0), st.integers(2, 3 * 10**6))
@example(CosinePolynomial((3.0, 4.0, 1.0)), 1.3, 0.0, 3 * 10**6)
@example(D9, 1.25, 49.9, _TWO_BLOCKS_N)
@example(CosinePolynomial((1.0, 0.0)), 2.0, 14.13, 10**6)
@example(CosinePolynomial((3.0, 4.0, 1.0)), 3.0, 0.0, 2_410_829)
def test_dirichlet_route_matches_per_j_cosines(p, x, y, N):
    report = applied_trig_sum(p, x, y, tol=1e-15, max_n=N)
    N = _cut(_trig_shifts(p.coeffs, x, y), 1e-15, N, p.coeffs)[0]  # below the cap where tol is met sooner
    assert report.params["N"] == N
    oracle, sum_w = _dirichlet_per_j(p.coeffs, x, y, N)
    oracle += _trig_main(p, x, y, 1e-15, N)
    assert abs(report.lhs - oracle) <= (
        1e-13 * sum(abs(bj) for bj in p.coeffs) * sum_w + 2.0**-52 * abs(report.lhs))


@pytest.mark.parametrize("p", [CosinePolynomial((3.0, 4.0, 1.0)), D5, D9, D32],
                         ids=["classical", "d5_optimum", "d9_product", "d32_dominated"])
@pytest.mark.parametrize("x, y", [(1.25, 0.37), (1.3, 14.13), (2.0, 49.9)])
def test_dirichlet_route_matches_mpmath(p, x, y):
    N = 3000
    report = applied_trig_sum(p, x, y, tol=1e-10, max_n=N)
    n, _, _ = _CACHE.upto(N)
    with mp.workdps(40):
        lhs, sum_w = mp.mpf(0), mp.mpf(0)
        for m in n.astype(int).tolist():
            p_m = next(q for q in range(2, m + 1) if m % q == 0)  # m is a power of p_m
            w = mp.log(p_m) * mp.power(m, -mp.mpf(x))
            phi = mp.mpf(y) * mp.log(m)
            sum_w += w
            lhs += w * mp.fsum(bj * mp.cos(j * phi) for j, bj in enumerate(p.coeffs))
    # the rounding of y log n, which d/dphi cos(j phi) amplifies by j, sets
    # the floor; the main term adds the rounding of one addition
    lhs += _trig_main(p, x, y, 1e-10, N)
    assert abs(report.lhs - float(lhs)) <= (
        1e-14 * sum(abs(bj) for bj in p.coeffs) * float(sum_w) + 2.0**-52 * abs(report.lhs))


@pytest.mark.parametrize("N", [_TWO_BLOCKS_N, 3 * 10**6])
def test_sieve_route_is_blockwise_eval_poly(N):
    n, lam, log_n = _CACHE.upto(N)
    assert (len(n) == 2 * _EVAL_BLOCK) == (N == _TWO_BLOCKS_N)
    x, y = 1.3, 14.13
    report = applied_trig_sum(D9, x, y, tol=1e-10, max_n=N)
    weights = lam * np.exp(-x * log_n)
    vals = np.concatenate([eval_poly(D9, y * log_n[a : a + _EVAL_BLOCK])
                           for a in range(0, len(n), _EVAL_BLOCK)])
    assert report.rhs == float(np.sum(weights * vals)) + _trig_main(D9, x, y, 1e-10, N)


def _applied_trig_two_cosines(p, x, y, N):
    """(lhs, rhs) by applied_trig_sum's block loop with eval_poly taking its
    own cosine, as applied_trig_sum once computed them, plus the main term
    of its cut at tol 1e-15.  Both sum to the cut's N, which is below the
    cap N where tol is met sooner."""
    N = _cut(_trig_shifts(p.coeffs, x, y), 1e-15, N, p.coeffs)[0]
    _, lam, log_n = _CACHE.upto(N)
    b = p.coeffs
    sieve_terms = np.empty_like(lam)
    terms = np.zeros(len(b))
    for a in range(0, len(lam), _EVAL_BLOCK):
        blk = slice(a, a + _EVAL_BLOCK)
        w, phi = lam[blk] * np.exp(-x * log_n[blk]), y * log_n[blk]
        sieve_terms[blk] = w * eval_poly(p, phi)
        c = np.cos(phi) if y else 1.0
        two_c = c + c
        prev, t = w, w * c
        terms[0] += np.sum(w)
        terms[1] += np.sum(t)
        for j in range(2, len(b)):
            prev, t = t, two_c * t - prev
            terms[j] += np.sum(t)
    main = _trig_main(p, x, y, 1e-15, N)
    return sum(bj * float(s) for bj, s in zip(b, terms)) + main, float(np.sum(sieve_terms)) + main


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([CosinePolynomial((3.0, 4.0, 1.0)), D5, D9, D32]), st.floats(1.25, 3.0),
       st.one_of(st.just(0.0), st.floats(0.0, 50.0)), st.integers(2, 3 * 10**6))
@example(D5, 1.3, 0.0, _TWO_BLOCKS_N)
@example(D9, 1.25, 49.9, _TWO_BLOCKS_N)
@example(CosinePolynomial((3.0, 4.0, 1.0)), 3.0, 0.0, 2_410_829)
def test_both_routes_are_bit_identical_to_two_cosines_per_point(p, x, y, N):
    report = applied_trig_sum(p, x, y, tol=1e-15, max_n=N)
    assert (report.lhs, report.rhs) == _applied_trig_two_cosines(p, x, y, N)


@pytest.mark.parametrize("y", [14.13, 0.0])
def test_applied_trig_sum_takes_one_cosine_per_point(monkeypatch, y):
    N, p = 10**6, D9
    p.nonneg  # the certificate's own cosines are not counted
    n, _, _ = _CACHE.upto(N)
    sizes = {"cos": 0, "sin": 0}
    for name in sizes:
        ufunc = getattr(np, name)

        def counted(arg, *args, _name=name, _ufunc=ufunc, **kwargs):
            sizes[_name] += np.size(arg)
            return _ufunc(arg, *args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    applied_trig_sum(p, 1.3, y, tol=1e-15, max_n=N)
    # one cosine of each y log n, and one sine and cosine of each half
    # angle that eval_poly's kernel sums again near cos = +-1 (every point
    # at y = 0)
    assert sizes["cos"] == len(n) + sizes["sin"]


def test_applied_trig_sum_checks_each_polynomial_object_once(verify_nonneg_calls):
    calls = verify_nonneg_calls
    p = CosinePolynomial((3.0, 4.0, 1.0))
    for i in range(20):
        assert applied_trig_sum(p, 1.5 + 0.05 * i, 2.5 * i, tol=1e-3, max_n=10**4).passed
    check_objective_input(p)
    assert calls == [p]
    q1, q2 = CosinePolynomial((3.0, 4.0, 1.0)), CosinePolynomial((3.0, 4.0, 1.0))
    applied_trig_sum(q1, 2.0, 1.0, tol=1e-3, max_n=10**4)
    applied_trig_sum(q2, 2.0, 1.0, tol=1e-3, max_n=10**4)
    assert len(calls) == 3 and calls[1] is q1 and calls[2] is q2


def test_applied_trig_sum_refuses_a_failing_polynomial_on_every_call(verify_nonneg_calls):
    calls = verify_nonneg_calls
    p = CosinePolynomial((1.0, 1.9))
    for _ in range(3):
        with pytest.raises(NonnegativityError, match="polynomial dips to"):
            applied_trig_sum(p, 2.0, 1.0, tol=1e-3, max_n=10**4)
    assert calls == [p]


_REFUSING_A_DIP = {
    "require_nonneg": require_nonneg,
    "check_objective_input": check_objective_input,
    "compute_M": compute_M,
    "applied_trig_sum": lambda p: applied_trig_sum(p, 2.0, 1.0, tol=1e-3, max_n=10**4),
}


@pytest.mark.parametrize("name", sorted(_REFUSING_A_DIP))
def test_every_entry_point_refuses_a_dip_with_one_error(name):
    p = CosinePolynomial((1.0, 1.9))
    cert = p.nonneg
    want = f"polynomial dips to {cert.value:.3g} at theta={cert.theta:.6g}"
    with pytest.raises(NonnegativityError) as excinfo:
        _REFUSING_A_DIP[name](p)
    assert str(excinfo.value) == want


# ---------------------------------------------------------------------------
# eta too small for the float range
# ---------------------------------------------------------------------------

_CALLS_WITH_ETA = {
    "lemma_lhs": lambda eta: lemma_lhs(1.5, eta, 1e-3, max_n=1000),
    "lemma_rhs": lambda eta: lemma_rhs(1.5, eta, 1e-3),
    "lemma_check": lambda eta: lemma_check(1.5, eta, tol=1e-3, max_n=1000),
    "midpoint_bound_check": lambda eta: midpoint_bound_check(1.5, eta, tol=1e-3, max_n=1000),
}


@pytest.mark.parametrize("eta", [1e-310, 5e-324])
@pytest.mark.parametrize("name", sorted(_CALLS_WITH_ETA))
def test_eta_below_the_float_range_is_a_domain_error(name, eta):
    with pytest.raises(DomainError, match=f"eta = {eta!r} is too small"):
        _CALLS_WITH_ETA[name](eta)


@pytest.mark.parametrize("sigma, eta", sorted(
    {(sigma, eta) for sigma in (1.3, 1.5, 2.0) for eta in (0.05, 0.1, 0.25, 0.5, 1e-200)}))
def test_lemma_grid_and_tiny_eta_are_in_the_float_range(sigma, eta):
    _check_k_sum_range(sigma, eta)


def test_lemma_rhs_names_its_own_overflow():
    # eta*tol is fine here, so U is finite; only val / (4*eta) would overflow
    with pytest.raises(DomainError, match=r"integral side's bound log zeta\(1\.5\) / \(2\*eta\)"):
        lemma_rhs(1.5, 1e-310, 1e3)


def test_eta_1e_200_is_accepted(monkeypatch):
    value, err = lemma_lhs(1.5, 1e-200, 1e-3, max_n=1000)
    assert 0.0 < value < math.inf and 0.0 < err < math.inf
    assert midpoint_bound_check(1.5, 1e-200, tol=1e-3, max_n=1000).lhs == value
    # the integral side refuses its far-too-small target before any quadrature
    monkeypatch.setattr(zetanum, "strip_gauss", None)
    with pytest.raises(DomainError, match=r"eta = 1e-200 is too small at tol = 0\.001: "):
        lemma_rhs(1.5, 1e-200, 1e-3)


@pytest.mark.parametrize("eta, tol", [(1e-200, 1e-3), (1e-14, 1e-3), (1e-3, 1e-14), (1e-20, 1e3)])
def test_eta_tol_below_the_rounding_of_the_integral_is_refused_at_once(eta, tol):
    sigma_line = 1.5 + eta
    assert eta * tol <= 2.0 * math.log(zeta_em(sigma_line).real) * 2.0**-52
    start = time.perf_counter()
    with pytest.raises(DomainError, match=f"eta = {eta!r} is too small at tol = {tol!r}: "):
        lemma_check(1.5, eta, tol=tol, max_n=1000)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("z, eta, tol", [(1.5, 1e-200, 1e-3), (1.5 + 20000j, 0.1, 1e-6)])
def test_lemma_check_refuses_the_integral_side_before_it_sieves(monkeypatch, z, eta, tol):
    # eta*tol within rounding, and |Im(z)| above zeta_em's window: lemma_rhs
    # refuses both, and at max_n = 10**8 a k-sum run first would sieve 10**8
    cache = _PrimePowerCache()
    monkeypatch.setattr(zetanum, "_CACHE", cache)
    with pytest.raises(DomainError):
        lemma_check(z, eta, tol=tol, max_n=10**8)
    assert cache.limit == 0


@settings(max_examples=40, deadline=None)
@given(st.floats(-323.0, -280.0), _SIGMA, _T, st.integers(1, 10**4))
def test_k_sum_is_finite_or_refused(log10_eta, sigma, t, max_n):
    eta = 10.0**log10_eta
    try:
        value, err = lemma_lhs(complex(sigma, t), eta, 1e-3, max_n=max_n)
    except DomainError:
        return
    assert math.isfinite(value) and 0.0 <= err < math.inf


# ---------------------------------------------------------------------------
# tol and max_n validation
# ---------------------------------------------------------------------------

_CALLS_WITH_TOL = {
    "neg_zeta_logderiv": lambda tol: neg_zeta_logderiv(2.0, tol),
    "lemma_lhs": lambda tol: lemma_lhs(1.5 + 10j, 0.25, tol),
    "lemma_rhs": lambda tol: lemma_rhs(1.5 + 10j, 0.25, tol),
    "lemma_check": lambda tol: lemma_check(1.5 + 10j, 0.25, tol=tol),
    "midpoint_bound_check": lambda tol: midpoint_bound_check(1.5, 0.25, tol=tol),
    "applied_trig_sum": lambda tol: applied_trig_sum(CosinePolynomial((3.0, 4.0, 1.0)),
                                                     2.0, 1.0, tol=tol),
}


# a call of each routine just below its window, and the exact message it raises
_CALLS_BELOW_WINDOW = {
    "neg_zeta_logderiv": (lambda: neg_zeta_logderiv(1.05, 1e-3),
                          "Re(s) = 1.05 below the convergence window 1.1"),
    "lemma_lhs": (lambda: lemma_lhs(1.2 + 10j, 0.25, 1e-3),
                  "Re(z) = 1.2 below the desk-scale window 1.25"),
    "lemma_rhs": (lambda: lemma_rhs(1.2 + 10j, 0.25, 1e-3),
                  "Re(z) = 1.2 below the desk-scale window 1.25"),
    "midpoint_bound_check": (lambda: midpoint_bound_check(1.2, 0.25, tol=1e-3),
                             "sigma = 1.2 below the desk-scale window 1.25"),
    "applied_trig_sum": (lambda: applied_trig_sum(CosinePolynomial((3.0, 4.0, 1.0)), 1.2, 1.0),
                         "x = 1.2 below the desk-scale window 1.25"),
    "neg_zeta_logderiv at -inf": (lambda: neg_zeta_logderiv(complex(-math.inf, 1.0), 1e-3),
                                  "Re(s) = -inf below the convergence window 1.1"),
    "lemma_check at -inf": (lambda: lemma_check(complex(-math.inf, 1.0), 0.25, tol=1e-3),
                            "Re(z) = -inf below the desk-scale window 1.25"),
    "midpoint_bound_check at -inf": (lambda: midpoint_bound_check(-math.inf, 0.25, tol=1e-3),
                                     "sigma = -inf below the desk-scale window 1.25"),
    "applied_trig_sum at -inf": (lambda: applied_trig_sum(CosinePolynomial((3.0, 4.0, 1.0)),
                                                          -math.inf, 1.0),
                                 "x = -inf below the desk-scale window 1.25"),
}


@pytest.mark.parametrize("name", sorted(_CALLS_BELOW_WINDOW))
def test_below_the_window_is_a_domain_error(name):
    call, message = _CALLS_BELOW_WINDOW[name]
    with pytest.raises(DomainError) as excinfo:
        call()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(_CALLS_WITH_TOL))
def test_tol_must_be_finite_and_positive(name, tol):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        _CALLS_WITH_TOL[name](tol)


_CALLS_WITH_MAX_N = {
    "neg_zeta_logderiv": lambda max_n: neg_zeta_logderiv(2.0, 1e-3, max_n=max_n),
    "lemma_lhs": lambda max_n: lemma_lhs(1.5 + 10j, 0.25, 1e-3, max_n=max_n),
    "lemma_check": lambda max_n: lemma_check(1.5 + 10j, 0.25, tol=1e-3, max_n=max_n),
    "midpoint_bound_check": lambda max_n: midpoint_bound_check(1.5, 0.25, tol=1e-3, max_n=max_n),
    "applied_trig_sum": lambda max_n: applied_trig_sum(CosinePolynomial((3.0, 4.0, 1.0)),
                                                       2.0, 1.0, tol=1e-3, max_n=max_n),
}


@pytest.mark.parametrize("max_n", [0, 0.5, -5, float("nan")])
@pytest.mark.parametrize("name", sorted(_CALLS_WITH_MAX_N))
def test_max_n_must_be_at_least_one(name, max_n):
    with pytest.raises(ValueError, match=f"max_n must be >= 1, got {max_n!r}"):
        _CALLS_WITH_MAX_N[name](max_n)


@pytest.fixture
def no_sums(monkeypatch):
    """Every sieve, series cut and zeta evaluation of zetanum raises."""
    for name in ("_CACHE", "_Cut", "zeta_em", "strip_gauss"):
        monkeypatch.setattr(zetanum, name, None)


@pytest.mark.parametrize("max_n", [2.5, True, float("inf")])
@pytest.mark.parametrize("name", sorted(_CALLS_WITH_MAX_N))
def test_max_n_must_be_a_whole_number(no_sums, name, max_n):
    with pytest.raises(ValueError, match=f"max_n must be a whole number, got {max_n!r}"):
        _CALLS_WITH_MAX_N[name](max_n)


# three calls whose cut the cap max_n = 10**5 binds
_CALLS_AT_A_BINDING_CAP = {
    "applied_trig_sum": lambda max_n: applied_trig_sum(CosinePolynomial((3.0, 4.0, 1.0)), 1.3,
                                                       14.13, tol=1e-9, max_n=max_n),
    "midpoint_bound_check": lambda max_n: midpoint_bound_check(1.3, 0.05, tol=1e-9, max_n=max_n),
    "lemma_check": lambda max_n: lemma_check(1.3 + 1j, 0.05, tol=1e-9, max_n=max_n),
}


@pytest.mark.parametrize("name", sorted(_CALLS_AT_A_BINDING_CAP))
def test_a_whole_float_cap_gives_the_integer_caps_report(name):
    as_float, as_int = (_CALLS_AT_A_BINDING_CAP[name](max_n) for max_n in (1e5, 100_000))
    assert as_int.params["N"] == 100_000
    assert repr(as_float) == repr(as_int)


# each routine on a point z, with the names of Re z and Im z in its messages
_CALLS_WITH_A_POINT = {
    "neg_zeta_logderiv": (("Re(s)", "Im(s)"), lambda z: neg_zeta_logderiv(z, 1e-3)),
    "lemma_lhs": (("Re(z)", "Im(z)"), lambda z: lemma_lhs(z, 0.25, 1e-3)),
    "lemma_rhs": (("Re(z)", "Im(z)"), lambda z: lemma_rhs(z, 0.25, 1e-3)),
    "lemma_check": (("Re(z)", "Im(z)"), lambda z: lemma_check(z, 0.25, tol=1e-3)),
    "midpoint_bound_check": (("sigma",), lambda z: midpoint_bound_check(z.real, 0.25, tol=1e-3)),
    "applied_trig_sum": (("x", "y"), lambda z: applied_trig_sum(
        CosinePolynomial((3.0, 4.0, 1.0)), z.real, z.imag, tol=1e-3)),
}


@pytest.mark.parametrize("name, part, value", [
    (name, part, value) for name, (names, _) in sorted(_CALLS_WITH_A_POINT.items())
    for part, value in [(0, math.nan), (0, math.inf), (1, math.nan), (1, math.inf), (1, -math.inf)]
    if part < len(names)])
def test_a_part_that_is_not_finite_is_a_domain_error(no_sums, name, part, value):
    names, call = _CALLS_WITH_A_POINT[name]
    z = complex(value, 1.0) if part == 0 else complex(2.0, value)
    with pytest.raises(DomainError) as excinfo:
        call(z)
    assert str(excinfo.value) == f"{names[part]} = {value} is not finite"


# eta lies in (0, inf) for the telescoping lemma and in (0, 1) for the midpoint bound
@pytest.mark.parametrize("name, eta", [
    *((name, eta) for name in sorted(_CALLS_WITH_ETA) for eta in (0.0, -0.25, math.nan, math.inf)),
    ("midpoint_bound_check", 1.0), ("midpoint_bound_check", 1.5)])
def test_eta_outside_its_range_is_refused(no_sums, name, eta):
    top = 1 if name == "midpoint_bound_check" else math.inf
    with pytest.raises(ValueError) as excinfo:
        _CALLS_WITH_ETA[name](eta)
    assert str(excinfo.value) == f"eta must lie in (0, {top}), got {eta!r}"


def test_the_zero_polynomial_sums_to_zero_with_no_error():
    report = applied_trig_sum(CosinePolynomial((0.0, 0.0)), 2.0, 1.0, tol=1e-3, max_n=1000)
    assert report.passed and report.params["N"] == 1
    assert report.lhs == report.rhs == report.lhs_error_bound == 0.0


def test_max_n_one_truncates_to_the_empty_sum():
    report = _CALLS_WITH_MAX_N["applied_trig_sum"](1)
    assert report.params["N"] == 1
    assert report.lhs == report.rhs == 0.0
    assert report.lhs_error_bound == 8.0 * tail_bound(1, 2.0)
    value, err = _CALLS_WITH_MAX_N["lemma_lhs"](1)
    assert value == 0.0
    assert err == tail_bound(1, 2.0) / -math.expm1(-0.5 * math.log(2.0))
