import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetafree import mollifier, quadrature
from zetafree.errors import QuadratureError
from zetafree.quadrature import adaptive_quad


def _quad_with_panels(f, a, b, tol, max_panels):
    """adaptive_quad's (value, estimate) and the estimates of its final panels."""
    scored = {}
    panel, cap = quadrature._panel, quadrature.MAX_PANELS

    def recorded(g, pa, pb):
        v, e = panel(g, pa, pb)
        scored[pa, pb] = e
        return v, e

    quadrature._panel, quadrature.MAX_PANELS = recorded, max_panels
    try:
        value, err = adaptive_quad(f, a, b, tol=tol)
    finally:
        quadrature._panel, quadrature.MAX_PANELS = panel, cap
    # a panel was split iff its left half was scored
    final = [e for (pa, pb), e in scored.items() if (pa, 0.5 * (pa + pb)) not in scored]
    return value, err, final


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-100.0, 100.0),
    st.floats(1e-3, 10.0),
    st.floats(-5.0, 5.0),
    st.floats(1.0, 250.0),
    st.floats(-40.0, 0.0),
    st.integers(2, 600),
)
# the weight of lemma_rhs's integral with a target far below rounding, as at
# eta = 1e-200: the running sum of the estimates once cancelled to below 0
@example(0.0, 1.0, 0.0, 150.0, -30.0, quadrature.MAX_PANELS)
def test_estimate_is_the_exact_sum_of_the_final_panels(log10_height, width, centre, half_width,
                                                         log10_tol, max_panels):
    height = 10.0**log10_height

    def f(u):  # height / cosh^2((u - centre) / width), without overflow
        e = np.exp(-2.0 * np.abs((u - centre) / width))
        return height * 4.0 * e / (1.0 + e) ** 2

    tol = height * 10.0**log10_tol
    _, err, final = _quad_with_panels(f, -half_width, half_width, tol, max_panels)
    assert err == math.fsum(final)
    assert err >= 0.0


def test_a_nan_estimate_misses_its_tol(monkeypatch):
    # W_eval, the one caller of adaptive_quad, checks the estimate itself
    monkeypatch.setattr(mollifier, "adaptive_quad", lambda f, a, b, tol: (0.0, math.nan))
    with pytest.raises(QuadratureError, match="error estimate nan above the requested tol 1e-11"):
        mollifier.W_eval(1.0, -1.0)


def test_one_integrand_call_of_21_distinct_points_per_panel(monkeypatch):
    panels, calls = [], []
    panel = quadrature._panel

    def recorded(g, pa, pb):
        panels.append((pa, pb))
        return panel(g, pa, pb)

    def f(u):
        calls.append(u)
        return np.exp(-u * u) * np.cos(3.0 * u)

    monkeypatch.setattr(quadrature, "_panel", recorded)
    value, _ = adaptive_quad(f, -6.0, 6.0, tol=1e-12)
    assert len(panels) > 1
    assert [u.shape for u in calls] == [(21,)] * len(panels)
    assert all(len(np.unique(u)) == 21 for u in calls)
    assert value == pytest.approx(math.sqrt(math.pi) * math.exp(-2.25), rel=1e-12)


def test_the_7_point_values_are_read_at_the_7_point_nodes():
    # the 7-point rule's nodes, in its own order, among the 21 of one call
    assert np.array_equal(quadrature._X21[quadrature._I7], quadrature._X7)
    assert np.array_equal(quadrature._X21[:15], quadrature._X15)



def _strip_rule(f, a, b, strip, M, tol):
    """strip_gauss's (value, bound) and its rule's panels, nodes per panel and rho."""
    points, orders = [], []
    legendre = quadrature._legendre

    def rule(n):
        orders.append(n)
        return legendre(n)

    def recorded(u):
        points.append(u.size)
        return f(u)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "_legendre", rule)
        value, bound = quadrature.strip_gauss(recorded, a, b, strip, M, tol)
    ((n,), (size,)) = orders, points
    panels = size // n
    assert panels * n == size and 1 <= panels <= quadrature.STRIP_PANELS
    r = strip / (0.5 * (b - a) / panels)
    return value, bound, (panels, n, r + math.hypot(r, 1.0))


@settings(max_examples=60, deadline=None)
@given(st.floats(-30.0, 30.0), st.floats(0.1, 40.0), st.floats(0.3, 0.95), st.floats(-14.0, -1.0))
@example(-10.0, 20.0, 0.9, -3.0)
def test_strip_gauss_bound_holds_and_its_rule_is_the_smallest(a, width, strip, log10_tol):
    # 1/(1 + u^2) has its poles at +-i; |1 + u^2| >= 1 - strip^2 on the strip
    b, tol = a + width, 10.0**log10_tol
    value, bound, (panels, n, rho) = _strip_rule(
        lambda u: 1.0 / (1.0 + u * u), a, b, strip, 1.0 / (1.0 - strip**2), tol)
    assert bound <= tol
    # the bound is for the exact rule; numpy's leggauss weights (relative
    # errors up to about 1e-11 at 100-300 nodes) and the float sum are not in
    # it, and moved the value by at most 1.5e-13 of the integral in 3,000 draws
    exact = math.atan(b) - math.atan(a)
    assert abs(value - exact) <= bound + 1e-12 * exact
    # one node fewer per panel misses tol
    assert n == 1 or bound * rho**2 > tol


def test_strip_gauss_bounds_the_lemma_weight_with_one_panel_at_1e_6():
    strip = 0.45 * math.pi
    value, bound, (panels, n, _) = _strip_rule(
        lambda u: 1.0 / np.cosh(u) ** 2, -8.0, 8.0, strip,
        1.0 / math.cos(strip) ** 2, 1e-6)
    assert (panels, n) == (1, 64)
    assert abs(value - 2.0 * math.tanh(8.0)) <= bound <= 1e-6


def test_strip_gauss_builds_each_rule_once():
    quadrature._legendre.cache_clear()
    for _ in range(3):
        quadrature.strip_gauss(np.cos, 0.0, 1.0, 1.0, math.cosh(1.0), 1e-9)
    info = quadrature._legendre.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_strip_gauss_raises_past_its_node_cap(monkeypatch):
    monkeypatch.setattr(quadrature, "STRIP_NODES", 4)
    with pytest.raises(QuadratureError, match=r"tol 1e-12 needs \d+ > 4 nodes per panel"):
        quadrature.strip_gauss(np.cos, 0.0, 1.0, 1.0, math.cosh(1.0), 1e-12)


@pytest.mark.parametrize("M", [0.0, 1e-320])
def test_strip_gauss_takes_one_node_where_the_bound_is_far_below_tol(M):
    # M / tol underflows to 0, where the logarithm sizing the rule is undefined;
    # the one-node rule is 2 * cos(0)
    value, bound = quadrature.strip_gauss(np.cos, -1.0, 1.0, 1.0, M, 1e3)
    assert value == 2.0 and 0.0 <= bound <= 10.0 * M
