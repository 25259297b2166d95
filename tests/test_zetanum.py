import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from zetafree.errors import CapacityError, DomainError
from zetafree.trigpoly import CosinePolynomial
from zetafree.zetanum import (
    _BERN,
    _CACHE,
    _EM_ORDER,
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

def _bernoulli_exact(n):
    # B_n from sum_{k<=n} C(n+1, k) B_k = 0 for n >= 1, with B_0 = 1
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b[n]


def test_bernoulli_numbers_correctly_rounded():
    for j in range(1, _EM_ORDER + 1):
        assert _BERN[2 * j] == float(_bernoulli_exact(2 * j)), 2 * j


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


def test_applied_trig_random_agreement():
    rng = np.random.default_rng(12)
    p = CosinePolynomial((3.0, 4.0, 1.0))
    for _ in range(20):
        x = rng.uniform(1.25, 3.0)
        y = rng.uniform(0.0, 50.0)
        report = applied_trig_sum(p, x, y, tol=1e-3, max_n=MAXN)
        assert report.passed
        assert report.abs_diff <= 1e-9 * max(1.0, abs(report.lhs))  # same truncation: rounding only


# ---------------------------------------------------------------------------
# tol validation
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


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(_CALLS_WITH_TOL))
def test_tol_must_be_finite_and_positive(name, tol):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        _CALLS_WITH_TOL[name](tol)
