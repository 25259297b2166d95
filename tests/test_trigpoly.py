import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import poly2cheb

from zetafree.errors import DegreeOverflowError
from zetafree.trigpoly import (
    Certificate,
    CosinePolynomial,
    ProductForm,
    Violation,
    eval_poly,
    expand_product,
    power_to_cosine,
    verify_nonneg,
)

CLASSICAL = CosinePolynomial((3.0, 4.0, 1.0))

# expansion of (1+cos t)(0.8652559+cos t)^2(0.1974476+cos t)^2,
# frozen from a 40-digit expansion done with exact polynomial arithmetic
D5_COEFFS = (
    2.1182820548605713634,
    3.7146208486420674743,
    2.4797707014299786109,
    1.2116077826484825,
    0.390675875,
    0.0625,
)
D5_FORM = ProductForm(1.0, True, (0.8652559, 0.1974476))


def test_eval_classical_at_pi():
    assert eval_poly(CLASSICAL, np.pi) == pytest.approx(0.0, abs=1e-13)


def test_eval_classical_at_zero():
    assert eval_poly(CLASSICAL, 0.0) == pytest.approx(8.0, rel=1e-13)


def test_eval_constant():
    assert eval_poly(CosinePolynomial((1.0, 0.0, 0.0)), 2.7) == pytest.approx(1.0, rel=1e-13)


def _cosine_sum_mp(coeffs, theta):
    with mp.workdps(40):
        t = mp.mpf(float(theta))
        return mp.fsum(mp.mpf(b) * mp.cos(j * t) for j, b in enumerate(coeffs))


@settings(deadline=None)
@given(
    st.lists(st.floats(-10.0, 10.0, allow_subnormal=False), min_size=2, max_size=33),
    st.lists(st.floats(0.0, math.pi), max_size=8),
)
@example([0.0] * 32 + [1.0], [1e-3, 0.02, math.pi - 1e-3, math.pi - 0.02])
@example([1.0, -1.0] * 16 + [1.0], [1e-6, 0.5, math.pi - 1e-6])
def test_eval_poly_matches_mpmath(coeffs, thetas):
    # Clenshaw's error stays at rounding level relative to sum |b_j|, also
    # near 0 and pi where T_j' reaches j^2
    p = CosinePolynomial(tuple(coeffs))
    thetas = np.array([0.0, math.pi] + thetas)
    bound = 1e-14 * math.fsum(abs(b) for b in coeffs)
    vals = eval_poly(p, thetas)
    assert vals.shape == thetas.shape
    for theta, value in zip(thetas, vals):
        ref = _cosine_sum_mp(coeffs, theta)
        assert abs(value - ref) <= bound
        assert eval_poly(p, float(theta)) == value


def test_eval_matches_factored_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.integers(1, 7)
        form = ProductForm(
            float(rng.uniform(0.1, 5.0)),
            bool(rng.integers(0, 2)),
            tuple(rng.uniform(0.01, 3.0, size=m)),
        )
        p = expand_product(form)
        thetas = rng.uniform(0, 2 * np.pi, size=1000)
        # normalize by the value at 0 so the 1e-11 budget is scale-free
        scale = form.eval(0.0)
        diff = np.abs(eval_poly(p, thetas) - form.eval(thetas)) / scale
        assert np.max(diff) <= 1e-11


def test_expand_classical_identity():
    p = expand_product(ProductForm(2.0, False, (1.0,)))
    assert p.coeffs == pytest.approx((3.0, 4.0, 1.0), abs=1e-14)


def test_expand_half_angle_only():
    p = expand_product(ProductForm(2.0, True, ()))
    assert p.coeffs == pytest.approx((2.0, 2.0), abs=1e-14)


def test_expand_d5_frozen():
    p = expand_product(D5_FORM)
    assert p.coeffs == pytest.approx(D5_COEFFS, abs=1e-12)
    assert all(b > 0 for b in p.coeffs)


def test_expand_degree_overflow():
    form = ProductForm(1.0, True, tuple(np.linspace(0.5, 1.5, 17)))
    with pytest.raises(DegreeOverflowError):
        expand_product(form)


def test_power_to_cosine_square():
    assert power_to_cosine([1.0, 2.0, 1.0]) == pytest.approx((1.5, 2.0, 0.5), abs=1e-14)


def test_power_to_cosine_constant():
    assert power_to_cosine([4.25]) == pytest.approx((4.25,), abs=0)


def _fit_cosine_coeffs(power_coeffs):
    # brute-force oracle: solve for b at d+1 sample angles
    d = len(power_coeffs) - 1
    thetas = np.linspace(0.4, 2.9, d + 1)
    A = np.cos(np.outer(thetas, np.arange(d + 1)))
    target = np.polynomial.polynomial.polyval(np.cos(thetas), power_coeffs)
    return np.linalg.solve(A, target)


def test_power_to_cosine_cube_vs_fit():
    got = power_to_cosine([0.0, 0.0, 0.0, 1.0])
    assert got == pytest.approx((0.0, 0.75, 0.0, 0.25), abs=1e-14)
    assert got == pytest.approx(_fit_cosine_coeffs([0.0, 0.0, 0.0, 1.0]), abs=1e-12)


def test_power_to_cosine_linearity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = rng.standard_normal(6)
        q = rng.standard_normal(6)
        lhs = np.array(power_to_cosine(p + q))
        rhs = np.array(power_to_cosine(p)) + np.array(power_to_cosine(q))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=33))
def test_power_to_cosine_equals_numpy_reference(power_coeffs):
    assert power_to_cosine(power_coeffs) == tuple(poly2cheb(power_coeffs))


def test_verify_nonneg_classical():
    cert = verify_nonneg(CLASSICAL)
    assert isinstance(cert, Certificate)
    assert cert.min_value == pytest.approx(0.0, abs=1e-9)
    assert cert.argmin == pytest.approx(np.pi, abs=1e-9)


def test_verify_nonneg_violation():
    res = verify_nonneg(CosinePolynomial((1.0, 1.9)))
    assert isinstance(res, Violation)
    assert res.theta == pytest.approx(np.pi, abs=1e-6)
    assert res.value == pytest.approx(-0.9, abs=1e-12)


def test_verify_nonneg_d5():
    assert isinstance(verify_nonneg(expand_product(D5_FORM)), Certificate)


def test_expand_always_nonneg():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rng.integers(1, 7)
        form = ProductForm(
            float(rng.uniform(0.1, 3.0)),
            bool(rng.integers(0, 2)),
            tuple(rng.uniform(0.01, 3.0, size=m)),
        )
        assert isinstance(verify_nonneg(expand_product(form), tol=1e-12), Certificate)


@pytest.mark.parametrize("coeffs", [(1.0, 0.0), (2.5, 0.0, 0.0, 0.0), (0.0, 0.0)])
def test_verify_nonneg_constant_is_quick(coeffs):
    # a flat grid is one candidate minimum, not one per grid point
    start = time.perf_counter()
    cert = verify_nonneg(CosinePolynomial(coeffs))
    assert time.perf_counter() - start <= 2.0
    assert cert == Certificate(min_value=coeffs[0], argmin=0.0)


@given(
    st.floats(1e-3, 1e3),
    st.booleans(),
    st.lists(st.floats(1e-3, 10.0), min_size=0, max_size=16),
)
def test_expand_product_coefficients_nonnegative(scale, half, roots):
    form = ProductForm(scale, half, tuple(roots[: 16 - half]))  # degree <= 32
    assert all(b >= 0.0 for b in expand_product(form).coeffs)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_verify_nonneg_tol_must_be_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="tol"):
        verify_nonneg(CLASSICAL, tol=tol)


def test_verify_nonneg_accepts_zero_tol():
    assert isinstance(verify_nonneg(CLASSICAL, tol=0.0), Certificate)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        CosinePolynomial((1.0,))
    with pytest.raises(ValueError):
        CosinePolynomial((1.0, np.inf))
    with pytest.raises(ValueError):
        ProductForm(0.0, False, (1.0,))
    with pytest.raises(ValueError):
        ProductForm(1.0, False, (-0.5,))
    with pytest.raises(ValueError):
        power_to_cosine([])

