import dataclasses
import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from zetafree import mollifier, quadrature
from zetafree.errors import QuadratureError, RatioOutOfRangeError
from zetafree.mollifier import (
    F0_closed,
    F0_eval,
    F_eval,
    MollifierShape,
    W_eval,
    g_eval,
    g_support,
    negWprime0_closed,
    solve_theta,
    w0_closed,
    w_eval,
)
from zetafree.quadrature import adaptive_quad

THETA_GRID = (0.3, 0.6, 0.9, 1.2, 1.5 - 1e-3)


def fixed_gauss(f, a, b, n=50):
    """Fixed-order Gauss-Legendre rule on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return h * np.sum(w * f(mid + h * x))


def _oracle_theta(b0, b1):
    # independent bracketing solver for the shape equation
    r = b1 / b0
    f = lambda th: np.sin(th) ** 2 - r * (1.0 - th / np.tan(th))
    return brentq(f, 1e-9, np.pi / 2 - 1e-12, xtol=1e-14)


def _residual(theta, r):
    return np.sin(theta) ** 2 - r * (1.0 - theta / np.tan(theta))


def test_solve_theta_3_4():
    th = solve_theta(3.0, 4.0)
    assert 0 < th < np.pi / 2
    assert abs(_residual(th, 4.0 / 3.0)) <= 1e-12
    assert th == pytest.approx(_oracle_theta(3.0, 4.0), abs=1e-10)


def test_solve_theta_ratio_two():
    th = solve_theta(1.0, 2.0)
    assert 0 < th < np.pi / 2
    assert abs(_residual(th, 2.0)) <= 1e-12


def test_solve_theta_rejects_small_ratio():
    with pytest.raises(RatioOutOfRangeError):
        solve_theta(1.0, 0.5)
    with pytest.raises(RatioOutOfRangeError):
        solve_theta(1.0, 3.5)


def test_solve_theta_random_vs_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        b0 = rng.uniform(0.5, 5.0)
        b1 = b0 * rng.uniform(1.05, 2.95)
        th = solve_theta(b0, b1)
        assert abs(_residual(th, b1 / b0)) <= 1e-12
        assert th == pytest.approx(_oracle_theta(b0, b1), abs=1e-10)


def _h_mp(theta):
    """h(theta) = sin^2(theta) / (1 - theta*cot(theta)) at the working precision."""
    theta = mp.mpf(theta)
    return mp.sin(theta) ** 2 / (1 - theta * mp.cot(theta))


def _bisect_theta_mp(r):
    """50-digit bisection for h(theta) = r at the exact float ratio r."""
    with mp.workdps(50):
        r = mp.mpf(r)
        lo, hi = mp.mpf(0), mp.pi / 2
        while hi - lo > mp.mpf(10) ** -45 * hi:
            mid = (lo + hi) / 2
            if _h_mp(mid) > r:  # h decreases, so the root lies above mid
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def _assert_matches_oracle(r):
    th = solve_theta(1.0, r)
    exact = _bisect_theta_mp(r)
    assert float(abs(th - exact) / exact) <= 1e-12, (r, th)


@settings(max_examples=200, deadline=None)
@given(st.floats(1.0, 3.0, exclude_min=True, exclude_max=True))
def test_solve_theta_relative_accuracy(r):
    _assert_matches_oracle(r)


@pytest.mark.parametrize(
    "r",
    [1.0 + 2.0**-k for k in range(1, 53)]
    + [3.0 - 2.0**-k for k in range(1, 52)]
    + [1.0 + 1e-15, 3.0 - 1e-6, 3.0 - 1e-9, 3.0 - 1e-12],
)
def test_solve_theta_accuracy_at_window_ends(r):
    _assert_matches_oracle(r)


@settings(deadline=None)
@given(
    st.floats(1e-6, math.pi / 2, exclude_max=True),
    st.floats(1e-6, math.pi / 2, exclude_max=True),
)
def test_shape_ratio_strictly_decreasing(t1, t2):
    assume(t1 != t2)
    lo, hi = min(t1, t2), max(t1, t2)
    with mp.workdps(60):
        assert _h_mp(lo) > _h_mp(hi)


@given(
    st.floats(1.0, 3.0, exclude_min=True, exclude_max=True),
    st.floats(1.0, 3.0, exclude_min=True, exclude_max=True),
)
def test_solve_theta_monotone_in_ratio(r1, r2):
    # up to rounding: adjacent ratios can give roots out of order by ~5e-15 relative
    lo, hi = min(r1, r2), max(r1, r2)
    assert solve_theta(1.0, lo) >= solve_theta(1.0, hi) * (1.0 - 1e-13)


def test_g_at_zero():
    expected = (1.0 - np.cos(1.0)) / np.cos(1.0) ** 2
    assert g_eval(1.0, 0.0) == pytest.approx(expected, rel=1e-14)


def test_g_boundary():
    assert g_eval(1.0, g_support(1.0)) == 0.0
    assert g_eval(1.0, -g_support(1.0) - 1e-9) == 0.0


def test_g_frozen_point():
    # high-precision reference for theta=0.8, u=0.3
    assert g_eval(0.8, 0.3) == pytest.approx(0.52732650703037043753, rel=1e-14)


def test_w_support_endpoint():
    th = solve_theta(3.0, 4.0)
    assert w_eval(th, 2.0 * g_support(th)) == 0.0


def test_w_at_zero_matches_closed_form():
    th = solve_theta(3.0, 4.0)
    assert w_eval(th, 0.0) == pytest.approx(w0_closed(th), abs=1e-10 * max(1.0, w0_closed(th)))


def test_w_nonnegative():
    assert w_eval(0.9, 0.1) >= 0.0
    th = 0.9
    for u in np.linspace(0, 2 * g_support(th), 25):
        assert w_eval(th, u) >= -1e-13


def test_w_even_reflected_overlap():
    # (g*g)(u) computed from the reflected overlap window must agree
    th = 0.7
    s = g_support(th)
    for u in (0.1, 0.25, 0.4):
        direct = w_eval(th, u)
        reflected = fixed_gauss(
            lambda v: g_eval(th, v) * g_eval(th, -u - v), max(-s, -u - s), min(s, -u + s), 60
        )
        assert direct == pytest.approx(reflected, abs=1e-11)


def _w_mp(theta, u):
    """(g*g)(u) by a 30-digit mpmath quadrature over the overlap of the supports."""
    with mp.workdps(30):
        th, u = mp.mpf(theta), mp.mpf(u)
        k, c = mp.tan(th), mp.cos(th)
        s = th / k
        if u >= 2 * s:
            return mp.mpf(0)
        g = lambda v: (mp.cos(v * k) - c) / c**2
        return mp.quad(lambda v: g(v) * g(u - v), [u - s, u / 2, s])


def _w0_mp(theta):
    with mp.workdps(30):
        th = mp.mpf(theta)
        return (th * mp.tan(th) + 3 * th * mp.cot(th) - 3) / mp.cos(th) ** 2


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, math.pi / 2 - 1e-6), st.floats(0.0, 1.0))
def test_w_matches_mpmath_convolution(theta, frac):
    u = frac * 2.0 * g_support(theta)
    assert abs(w_eval(theta, u) - _w_mp(theta, u)) <= 1e-14 * _w0_mp(theta)


def test_w_array_equals_scalar_calls():
    th = 0.9
    u = np.linspace(0.0, 2.5 * g_support(th), 41)
    vals = w_eval(th, u)
    assert isinstance(vals, np.ndarray) and vals.shape == u.shape
    assert vals.tolist() == [w_eval(th, float(x)) for x in u]
    assert (vals >= 0.0).all()
    assert (vals[u >= 2.0 * g_support(th)] == 0.0).all()


@pytest.mark.parametrize("theta", (1e-3, 0.05, 0.3, 0.6, 0.9, 1.2, 1.5699))
def test_w_eval_keeps_its_bits_with_value_only_series(monkeypatch, theta):
    # the series sums once came from _horner, which also took a derivative
    u = np.linspace(0.0, 2.0 * g_support(theta), 33)
    values = w_eval(theta, u), [w_eval(theta, float(x)) for x in u]
    monkeypatch.setattr(mollifier, "_poly", lambda coeffs, x: mollifier._horner(coeffs, x)[0])
    assert w_eval(theta, u).tolist() == values[0].tolist()
    assert [w_eval(theta, float(x)) for x in u] == values[1]


def test_w_rejects_negative_u():
    with pytest.raises(ValueError):
        w_eval(0.9, -0.1)
    with pytest.raises(ValueError):
        w_eval(0.9, np.array([0.1, -0.1]))


@pytest.mark.parametrize("theta", (0.01, 0.05, 0.1))
def test_w0_closed_small_theta_vs_mpmath(theta):
    exact = _w0_mp(theta)
    assert float(abs(w0_closed(theta) - exact) / exact) <= 1e-14


@pytest.mark.parametrize("theta", THETA_GRID)
def test_w0_closed_vs_quadrature(theta):
    s = g_support(theta)
    quad, _ = adaptive_quad(lambda v: g_eval(theta, v) ** 2, -s, s, tol=1e-12)
    assert w0_closed(theta) == pytest.approx(quad, abs=1e-10 * max(1.0, abs(quad)))


@pytest.mark.parametrize("theta", THETA_GRID)
def test_F0_closed_vs_W_at_minus_one(theta):
    assert F0_closed(theta) == pytest.approx(
        W_eval(theta, -1.0).real, abs=1e-8 * max(1.0, abs(F0_closed(theta)))
    )


@pytest.mark.parametrize("theta", (0.3, 0.9, 1.2))
def test_negWprime0_closed_vs_first_moment(theta):
    sup = 2.0 * g_support(theta)
    quad, _ = adaptive_quad(
        lambda u: np.array([u_ * w_eval(theta, float(u_)) for u_ in np.atleast_1d(u)]),
        0.0,
        sup,
        tol=1e-11,
    )
    assert negWprime0_closed(theta) == pytest.approx(quad, abs=1e-8 * max(1.0, abs(quad)))


def _F0_mp(theta):
    with mp.workdps(50):
        th = mp.mpf(theta)
        return 2 * mp.tan(th) ** 2 + 3 - 3 * th * (mp.tan(th) + mp.cot(th))


def _negWprime0_mp(theta):
    with mp.workdps(50):
        th = mp.mpf(theta)
        inner = (15 - 12 * th**2 + th * (4 * th**2 - 15) * mp.cot(th)) * mp.csc(th)
        return mp.csc(th) * (inner + 3 * th * mp.sec(th)) / 3


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-4, math.pi / 2 - 1e-6))
@example(1e-4)
@example(0.01)
@example(0.1)
@example(0.3)
@example(1.0)
@example(math.pi / 2 - 1e-6)
def test_F0_and_negWprime0_match_mpmath(theta):
    assert abs(F0_closed(theta) / _F0_mp(theta) - 1) <= 1e-13
    assert abs(negWprime0_closed(theta) / _negWprime0_mp(theta) - 1) <= 1e-13


def test_W_at_zero_is_half_square_of_g_integral():
    # int over R of g*g = (int g)^2; w is even, so the half-line mass is half that
    th = solve_theta(3.0, 4.0)
    s = g_support(th)
    g_int, _ = adaptive_quad(lambda v: g_eval(th, v), -s, s, tol=1e-12)
    assert W_eval(th, 0.0).real == pytest.approx(g_int**2 / 2.0, rel=1e-9)


def test_W_real_for_real_argument():
    assert abs(W_eval(0.9, 0.7).imag) <= 1e-14


# W_eval(theta, -1) at the benchmark's closed-form angles, as the float hex
# strings computed when each panel called its integrand twice (15 nodes, then 7).
# numpy's AVX-512 sin/tan give the first value at theta = 0.3, its other
# dispatch paths the second.  At theta = 1.5699, |W| = 2.48e6 and the
# target is 2**-46 |W| instead of W_TOL, below one ulp of W; this value is
# 3 ulp from the one W_TOL gave (0x1.2f3e0ec0dba71p+21, in 121 panel calls).
_W_AT_MINUS_ONE = {
    0.3: ("0x1.cd5b75d3e194cp-9", "0x1.cd5b75d3e1949p-9"),
    0.6: ("0x1.2d69f75434bc0p-4",),
    0.9: ("0x1.431018a69102dp-1",),
    1.2: ("0x1.64a514517a01ap+2",),
    1.5699: ("0x1.2f3e0ec0dba6ep+21",),
}


def test_W_eval_keeps_its_bits_at_the_closed_form_angles():
    for theta, values in _W_AT_MINUS_ONE.items():
        assert W_eval(theta, -1.0) in {complex(float.fromhex(v)) for v in values}, theta


def test_W_eval_near_pi_over_2_is_fast_and_meets_F0_closed(monkeypatch):
    W = W_eval(1.5699, -1.0)
    assert abs(W.real - F0_closed(1.5699)) <= 1e-12 * F0_closed(1.5699)
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        W_eval(1.5699, -1.0)
        best = min(best, time.perf_counter() - start)
    assert best < 1e-3
    # W_TOL took 121 panel calls here
    calls = []
    panel = quadrature._panel

    def counted(f, a, b):
        calls.append((a, b))
        return panel(f, a, b)

    monkeypatch.setattr(quadrature, "_panel", counted)
    assert W_eval(1.5699, -1.0) == W
    assert len(calls) <= 5


def _two_call_panel(f, a, b):
    """quadrature._panel as it was, one integrand call per Gauss rule."""
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    v15 = h * np.sum(quadrature._W15 * f(mid + h * quadrature._X15))
    v7 = h * np.sum(quadrature._W7 * f(mid + h * quadrature._X7))
    return v15, abs(v15 - v7)


@pytest.mark.parametrize("s", [-1.0, 0.0, 2.5 + 7.0j, -1.0 + 40.0j])
def test_W_eval_same_bits_as_one_call_per_rule(monkeypatch, s):
    one_call = [W_eval(theta, s) for theta in THETA_GRID]
    monkeypatch.setattr(quadrature, "_panel", _two_call_panel)
    assert one_call == [W_eval(theta, s) for theta in THETA_GRID]


def test_W_raises_when_quadrature_misses_tol(monkeypatch):
    # W_TOL is fixed; at s = -1 one panel already meets it, so a 2-panel cap
    # and an oscillating integrand force the shortfall
    monkeypatch.setattr(quadrature, "MAX_PANELS", 2)
    with pytest.raises(QuadratureError, match=r"error estimate .* above the requested tol 1e-11"):
        W_eval(1.0, -1.0 + 300j)


def test_shape_derived_fields():
    sh = MollifierShape.from_coeffs(3.0, 4.0, lam=1.0)
    assert sh.w_support == pytest.approx(2.0 * g_support(sh.theta))
    assert w0_closed(sh.theta) > 0 and negWprime0_closed(sh.theta) > 0
    assert abs(_residual(sh.theta, 4.0 / 3.0)) <= 1e-12


def test_hand_built_shape_matches_from_coeffs():
    ref = MollifierShape.from_coeffs(3.0, 4.0, lam=1.0)
    sh = MollifierShape(theta=ref.theta, lam=1)
    assert sh.w_support == ref.w_support
    assert sh.f0 == ref.f0 == pytest.approx(112.69005237, rel=1e-9)
    assert sh.f_eval(0.3) == ref.f_eval(0.3) == pytest.approx(41.292002, rel=1e-6)


def test_f_array_equals_scalar_calls():
    sh = MollifierShape.from_coeffs(3.0, 4.0, lam=0.7)
    u = np.linspace(0.0, 1.5 * sh.w_support / sh.lam, 41)
    vals = sh.f_eval(u)
    assert isinstance(vals, np.ndarray) and vals.shape == u.shape
    assert vals.tolist() == [sh.f_eval(float(x)) for x in u]
    assert (vals[sh.lam * u < sh.w_support] > 0.0).all()
    assert (vals[sh.lam * u >= sh.w_support] == 0.0).all()
    with pytest.raises(ValueError):
        sh.f_eval(np.array([0.1, -0.1]))


def test_f_overflows_quietly_to_inf_and_stays_zero_past_the_support():
    # pytest turns a RuntimeWarning into an error, so this also checks there is none
    sh = MollifierShape.from_coeffs(3.0, 4.0, lam=1e307)
    assert sh.f_eval(np.array([0.0, 1.0])).tolist() == [math.inf, 0.0]
    assert sh.f_eval(1.0) == 0.0


def test_shape_stores_only_theta_coeffs_and_lam():
    assert [f.name for f in dataclasses.fields(MollifierShape)] == ["theta", "lam"]


def test_f0_is_lambda_times_w0():
    sh = MollifierShape.from_coeffs(3.0, 4.0, lam=0.25)
    assert sh.f0 == 0.25 * w0_closed(sh.theta)  # same code path, exact


def test_F_is_shifted_W():
    sh = MollifierShape.from_coeffs(3.0, 4.0, lam=0.8)
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = complex(rng.uniform(-1, 2), rng.uniform(-2, 2))
        lhs = F_eval(sh, z)
        rhs = W_eval(sh.theta, z / sh.lam - 1.0)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_F_at_zero_is_closed_form():
    sh = MollifierShape.from_coeffs(3.0, 4.0, lam=0.5)
    assert F_eval(sh, 0.0).real == pytest.approx(F0_closed(sh.theta), abs=1e-8)


def test_F_at_lambda_is_W_at_zero():
    sh = MollifierShape.from_coeffs(3.0, 4.0, lam=0.5)
    assert abs(F_eval(sh, sh.lam) - W_eval(sh.theta, 0.0)) <= 1e-9


def test_F0_decays():
    sh = MollifierShape.from_coeffs(3.0, 4.0, lam=0.5)
    small = abs(F0_eval(sh, 200.0 + 40j))
    big = abs(F0_eval(sh, 2.0 + 1j))
    assert small < big
    assert small < 1e-2


def test_F0_at_zero_raises():
    sh = MollifierShape.from_coeffs(3.0, 4.0, lam=0.5)
    with pytest.raises(ZeroDivisionError):
        F0_eval(sh, 0.0)


@pytest.mark.parametrize("lam", (0.0, -1.0, float("nan"), float("inf")))
def test_lambda_must_be_finite_and_positive(lam):
    with pytest.raises(ValueError, match="lam"):
        MollifierShape.from_coeffs(3.0, 4.0, lam=lam)
    with pytest.raises(ValueError, match="lam"):
        MollifierShape(theta=0.9, lam=lam)
