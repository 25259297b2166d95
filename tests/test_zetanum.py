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
    _BERN,
    _CACHE,
    _EM_ORDER,
    _EVAL_BLOCK,
    _PrimePowerCache,
    _check_k_sum_range,
    _k_sum,
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
    assert tail_bound(coarse.N, s.real) == pytest.approx(coarse.tail_bound)


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
    monkeypatch.setattr(quadrature, "MAX_PANELS", 2)
    with pytest.raises(QuadratureError, match=r"2-panel cap .* above the requested tol 2.5e-07"):
        lemma_rhs(1.5 + 10j, 0.25, 1e-6)


def test_lemma_rhs_constant_weight_mass():
    # int cosh^-2 = 2, so a constant integrand c integrates to c/(2*eta)
    from zetafree.quadrature import adaptive_quad

    val, _ = adaptive_quad(lambda u: 1.0 / np.cosh(u) ** 2, -20.0, 20.0, tol=1e-12)
    assert val == pytest.approx(2.0, rel=1e-10)


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
    """The closed form's bound: tail_bound(N, s) / (1 - (N+1)^(-2*eta)), s = sigma + 2*eta."""
    return tail_bound(N, sigma + 2.0 * eta) / -math.expm1(-2.0 * eta * math.log(N + 1))


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
    total, got_err = _k_sum(z, eta, tol, N)
    N_used = min(_n_for_tail(sigma + 2.0 * eta, tol * -math.expm1(-2.0 * eta * math.log(2.0))), N)
    assert got_err == _k_sum_bound(sigma, eta, N_used)
    assert N_used == N or got_err <= tol
    assert abs(total - math.fsum(terms)) <= err_ref + got_err + 1e-13 * scale


def _k_sum_by_terms(z, eta, N):
    """sum over k of _lambda_sum(z + 2k*eta, N).real, up to the first term below 1e-18."""
    terms = [_lambda_sum(z + 2.0 * eta, N).real]
    while abs(terms[-1]) >= 1e-18:
        terms.append(_lambda_sum(z + 2.0 * (len(terms) + 1) * eta, N).real)
    return math.fsum(terms)


@settings(max_examples=40, deadline=None)
@given(_SIGMA, _T, st.floats(0.05, 0.5), _N)
@example(1.25, 0.0, 0.05, 10**6)
@example(1.3, 14.13, 0.5, 2)
def test_k_sum_closed_form_matches_per_k_series(sigma, t, eta, N):
    z = complex(sigma, t)
    # at this tol every N is capped, so both sides sum the same prime powers
    total, err = _k_sum(z, eta, 1e-300, N)
    assert err == _k_sum_bound(sigma, eta, N)
    _, lam, log_n = _CACHE.upto(N)
    scale = float(np.sum(lam * np.exp(-sigma * log_n) / np.expm1(2.0 * eta * log_n)))
    assert abs(total - _k_sum_by_terms(z, eta, N)) <= 1e-13 * scale


def test_lemma_lhs_small_eta_reports_its_bound():
    value, err = lemma_lhs(1.5, 1e-4, 1e-3, max_n=10**5)
    assert math.isfinite(value) and math.isfinite(err)
    assert err == _k_sum_bound(1.5, 1e-4, 10**5)


@settings(max_examples=40, deadline=None)
@given(_SIGMA, _T, _N, _TOL, st.sampled_from([CosinePolynomial((3.0, 4.0, 1.0)), D5, D9]))
@example(2.0, 0.0, 10**6, 1e-10, D9)
def test_dirichlet_route_matches_complex_series(x, y, N, tol, p):
    report = applied_trig_sum(p, x, y, tol=tol, max_n=N)
    N_used = min(_n_for_tail(x, tol), N)
    b = p.coeffs
    oracle = math.fsum(bj * _lambda_sum(complex(x, j * y), N_used).real for j, bj in enumerate(b))
    scale = sum(abs(bj) for bj in b) * _lambda_sum(x, N_used).real
    assert report.params["N"] == N_used
    assert report.lhs_error_bound == report.rhs_error_bound == (
        sum(abs(bj) for bj in b) * tail_bound(N_used, x))
    assert abs(report.lhs - oracle) <= 1e-13 * scale


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
def test_dirichlet_route_matches_per_j_cosines(p, x, y, N):
    report = applied_trig_sum(p, x, y, tol=1e-15, max_n=N)
    assert report.params["N"] == N
    oracle, sum_w = _dirichlet_per_j(p.coeffs, x, y, N)
    assert abs(report.lhs - oracle) <= 1e-13 * sum(abs(bj) for bj in p.coeffs) * sum_w


_D32_TAIL = np.random.default_rng(0).uniform(-1.0, 1.0, MAX_DEGREE).tolist()
D32 = CosinePolynomial((0.5 + sum(abs(c) for c in _D32_TAIL), *_D32_TAIL))


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
    # the rounding of y log n, which d/dphi cos(j phi) amplifies by j, sets the floor
    assert abs(report.lhs - float(lhs)) <= 1e-14 * sum(abs(bj) for bj in p.coeffs) * float(sum_w)


@pytest.mark.parametrize("N", [_TWO_BLOCKS_N, 3 * 10**6])
def test_sieve_route_is_blockwise_eval_poly(N):
    n, lam, log_n = _CACHE.upto(N)
    assert (len(n) == 2 * _EVAL_BLOCK) == (N == _TWO_BLOCKS_N)
    x, y = 1.3, 14.13
    report = applied_trig_sum(D9, x, y, tol=1e-10, max_n=N)
    weights = lam * np.exp(-x * log_n)
    vals = np.concatenate([eval_poly(D9, y * log_n[a : a + _EVAL_BLOCK])
                           for a in range(0, len(n), _EVAL_BLOCK)])
    assert report.rhs == float(np.sum(weights * vals))


def _applied_trig_two_cosines(p, x, y, N):
    """(lhs, rhs) by applied_trig_sum's block loop with eval_poly taking its
    own cosine, as applied_trig_sum once computed them."""
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
    return sum(bj * float(s) for bj, s in zip(b, terms)), float(np.sum(sieve_terms))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([CosinePolynomial((3.0, 4.0, 1.0)), D5, D9, D32]), st.floats(1.25, 3.0),
       st.one_of(st.just(0.0), st.floats(0.0, 50.0)), st.integers(2, 3 * 10**6))
@example(D5, 1.3, 0.0, _TWO_BLOCKS_N)
@example(D9, 1.25, 49.9, _TWO_BLOCKS_N)
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
    monkeypatch.setattr(zetanum, "adaptive_quad", None)
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


def test_max_n_one_truncates_to_the_empty_sum():
    report = _CALLS_WITH_MAX_N["applied_trig_sum"](1)
    assert report.params["N"] == 1
    assert report.lhs == report.rhs == 0.0
    assert report.lhs_error_bound == 8.0 * tail_bound(1, 2.0)
    value, err = _CALLS_WITH_MAX_N["lemma_lhs"](1)
    assert value == 0.0
    assert err == tail_bound(1, 2.0) / -math.expm1(-0.5 * math.log(2.0))
