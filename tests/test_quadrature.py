import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetafree import quadrature
from zetafree.errors import QuadratureError
from zetafree.quadrature import _require_tol, adaptive_quad


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


def test_a_nan_estimate_misses_its_tol():
    with pytest.raises(QuadratureError, match="error estimate nan"):
        _require_tol(math.nan, 1.0)
