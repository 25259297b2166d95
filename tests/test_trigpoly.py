import dataclasses
import math
import pickle
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import poly2cheb

from zetafree.errors import DegreeOverflowError
from zetafree.trigpoly import (
    GRID_POINTS,
    MAX_DEGREE,
    Certificate,
    CosinePolynomial,
    ProductForm,
    Violation,
    _dyadic,
    _exact_value,
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


def _eval_factored(form, theta):
    """Direct evaluation of the factored product."""
    c = np.cos(theta)
    out = form.scale * np.ones_like(c)
    if form.half_angle_factor:
        out = out * (1.0 + c)
    for a in form.roots:
        out = out * (a + c) ** 2
    return out


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
        scale = _eval_factored(form, 0.0)
        diff = np.abs(eval_poly(p, thetas) - _eval_factored(form, thetas)) / scale
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
        m = rng.integers(1, 17)
        form = ProductForm(
            float(rng.uniform(0.1, 3.0)),
            bool(rng.integers(0, 2)) and 2 * m + 1 <= MAX_DEGREE,
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


@given(
    st.floats(1e-3, 1e3),
    st.booleans(),
    st.lists(st.floats(1e-3, 10.0), min_size=0, max_size=16),
)
def test_expand_product_equals_a_direct_root_loop(scale, half, roots):
    # the product multiplied out root by root as (a + c)^2 = a^2 + 2a*c + c^2
    form = ProductForm(scale, half, tuple(roots[: 16 - half]))
    pc = [scale, scale] if half else [scale]
    for a in form.roots:
        pc = [0.0, 0.0] + pc + [0.0, 0.0]
        pc = [a * a * pc[k + 2] + 2.0 * a * pc[k + 1] + pc[k] for k in range(len(pc) - 2)]
    b = power_to_cosine(pc)
    assert expand_product(form).coeffs == (b + (0.0,) if len(b) < 2 else b)


# ---------------------------------------------------------------------------
# verify_nonneg against the grid + 60-digit golden-section search it replaced
# ---------------------------------------------------------------------------

REFINE_WIDTH = 1e-12


def _golden_min_mp(coeffs, a, b):
    """Golden-section refinement in extended precision.

    Double precision cannot localize a high-order zero-touching minimum
    (round-off ~1e-16 smears the argmin over ~1e-4 for a quartic touch),
    so the local refinement evaluates the cosine sum at 60 digits.
    """
    with mp.workdps(60):
        cs = [mp.mpf(c) for c in coeffs]
        f = lambda t: mp.fsum(cj * mp.cos(j * t) for j, cj in enumerate(cs))
        invphi = (mp.sqrt(5) - 1) / 2
        a, b = mp.mpf(a), mp.mpf(b)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = f(c), f(d)
        while (b - a) > REFINE_WIDTH:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = f(d)
        x = (a + b) / 2
        return float(x), float(f(x))


def _grid_candidates(p):
    """The grid of verify_nonneg and the indices of its candidate minima."""
    thetas = np.linspace(0.0, np.pi, GRID_POINTS)
    vals = eval_poly(p, thetas)
    interior = (vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:])
    candidates = list(np.nonzero(interior)[0] + 1)
    if vals[0] <= vals[1]:
        candidates.append(0)
    if vals[-1] <= vals[-2]:
        candidates.append(GRID_POINTS - 1)
    return thetas, vals, candidates


def _golden_min(p, thetas, vals, candidates):
    """(theta, value) of the minimum with each candidate refined by
    golden-section search in theta, as verify_nonneg once did."""
    best_x, best_v = 0.0, float(vals[0])
    for i in candidates:
        x, v = _golden_min_mp(p.coeffs, thetas[max(i - 1, 0)], thetas[min(i + 1, GRID_POINTS - 1)])
        if v < best_v:
            best_x, best_v = x, v
    return best_x, best_v


@st.composite
def _shifted_products(draw):
    """An expanded product form of degree <= 12 with b_0 lowered by
    delta * sum |b_j|, which moves its zeros below 0 when delta > 0."""
    half = draw(st.booleans())
    roots = draw(st.lists(st.floats(0.05, 2.5), min_size=1, max_size=6 - half))
    b = expand_product(ProductForm(draw(st.floats(0.1, 10.0)), half, tuple(roots))).coeffs
    delta = draw(st.sampled_from([0.0, 1e-15, 1e-13, 1e-11, 1e-8, 1e-4]))
    return (b[0] - delta * math.fsum(map(abs, b)),) + b[1:]


@settings(deadline=None, max_examples=40)
@given(st.one_of(
    st.lists(st.floats(-10.0, 10.0, allow_subnormal=False), min_size=2, max_size=13),
    _shifted_products(),
))
@example([3.0, 4.0, 1.0])
@example([1.0, 1.9])
@example(list(D5_COEFFS))
@example([2.5, 0.0, 0.0, 0.0])
def test_verify_nonneg_matches_grid_golden_oracle(coeffs):
    p = CosinePolynomial(tuple(coeffs))
    scale = math.fsum(abs(b) for b in coeffs)
    tol = 1e-12
    thetas, vals, candidates = _grid_candidates(p)
    # repeated roots make flat stretches with thousands of noise-level
    # candidates, at about 7 ms each for the 60-digit oracle
    assume(len(candidates) <= 64)
    _, oracle_v = _golden_min(p, thetas, vals, candidates)
    # the two refinements agree to rounding, which can flip a verdict only
    # at the threshold itself
    assume(abs(oracle_v + tol * scale) > 1e-14 * scale)
    res = verify_nonneg(p, tol=tol)
    assert isinstance(res, Certificate) == (oracle_v >= -tol * scale)
    value = res.min_value if isinstance(res, Certificate) else res.value
    assert abs(value - oracle_v) <= 1e-14 * scale
    if isinstance(res, Violation):
        with mp.workdps(50):
            t = mp.mpf(res.theta)
            exact = mp.fsum(mp.mpf(b) * mp.cos(j * t) for j, b in enumerate(coeffs))
        assert abs(res.value - exact) <= 1e-15 * scale


def _clenshaw_fraction(coeffs, c):
    c = Fraction(c)
    y1 = y2 = Fraction(0)
    for b in reversed(coeffs[1:]):
        y1, y2 = Fraction(b) + 2 * c * y1 - y2, y1
    return Fraction(coeffs[0]) + c * y1 - y2


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=33),
    st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 0.0, 1.0, 1e-300, -0.5])),
)
def test_exact_value_is_the_rounded_rational_sum(coeffs, c):
    assert _exact_value(_dyadic(coeffs), c) == float(_clenshaw_fraction(coeffs, c))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_verify_nonneg_tol_must_be_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="tol"):
        verify_nonneg(CLASSICAL, tol=tol)


def test_verify_nonneg_accepts_zero_tol():
    assert isinstance(verify_nonneg(CLASSICAL, tol=0.0), Certificate)


@pytest.mark.parametrize("coeffs", [(3.0, 4.0, 1.0), (1.0, 1.9)])
def test_nonneg_is_the_default_check_computed_once(verify_nonneg_calls, coeffs):
    calls = verify_nonneg_calls
    p = CosinePolynomial(coeffs)
    first = p.nonneg
    assert p.nonneg is first
    assert first == verify_nonneg(p)
    assert calls == [p]


def test_nonneg_is_not_part_of_the_value(verify_nonneg_calls):
    calls = verify_nonneg_calls
    p = CosinePolynomial((3.0, 4.0, 1.0))
    before = (repr(p), p.to_json(), hash(p))
    cert = p.nonneg
    assert (repr(p), p.to_json(), hash(p)) == before
    assert p == CosinePolynomial((3.0, 4.0, 1.0))
    assert [f.name for f in dataclasses.fields(p)] == ["coeffs"]
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
    assert q.nonneg == cert
    assert calls == [p]  # q kept p's certificate


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

