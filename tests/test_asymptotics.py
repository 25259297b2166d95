import math

import numpy as np
import pytest

from zetafree.asymptotics import (
    M_from_theta,
    compute_C,
    compute_M,
    eta_of,
    lambda_of,
    region_table,
)
from zetafree.errors import DomainError, NonnegativityError, RatioOutOfRangeError
from zetafree.mollifier import solve_theta
from zetafree.trigpoly import CosinePolynomial, ProductForm, expand_product, require_nonneg

CLASSICAL = CosinePolynomial((3.0, 4.0, 1.0))
# |q(e^{it})|^2 for q = (1, 1, 1, -1.2, -1.2, -1.2): nonnegative, with b1/b0 =
# 1.005 inside the shape window, but sum_{j>=1} b_j = p(0) - b0 = 0.36 - 7.32
TAIL_NEGATIVE = CosinePolynomial((7.32, 7.36, 0.08, -7.2, -4.8, -2.4))
D5 = expand_product(ProductForm(1.0, True, (0.8652559, 0.1974476)))
D4 = expand_product(ProductForm(1.0, False, (0.90176292, 0.22650717)))


def test_M_d5_reproduces_headline():
    assert compute_M(D5) == pytest.approx(0.055127, abs=1e-5)


def test_M_d4_reproduces_reference():
    assert compute_M(D4) == pytest.approx(0.05507, abs=1e-4)


def test_M_d5_beats_d4():
    assert compute_M(D5) > compute_M(D4)


def test_M_scale_invariant():
    m = compute_M(CLASSICAL)
    assert compute_M(CLASSICAL.scaled(2.0)) == pytest.approx(m, abs=1e-12)
    assert compute_M(CosinePolynomial((6.0, 8.0, 2.0))) == pytest.approx(m, abs=1e-12)


def test_M_scale_invariant_over_the_float_range():
    # (3, 4, 1) * 10**k: the unscaled sums in M overflow from k = 205 on and
    # underflow from k = -209 down
    m = compute_M(CLASSICAL)
    scaled = {k: tuple(float(f"{c:g}e{k}") for c in CLASSICAL.coeffs) for k in range(-300, 301)}
    for k, b in scaled.items():
        assert M_from_theta(b, solve_theta(b[0], b[1])) == pytest.approx(m, rel=1e-12), k
    # compute_M certifies each polynomial, about 10 ms apiece, so at the edges only
    for k in (-300, -218, -215, -209, 205, 300):
        assert compute_M(CosinePolynomial(scaled[k])) == pytest.approx(m, rel=1e-12), k


def test_M_rejects_bad_ratio():
    with pytest.raises(RatioOutOfRangeError):
        compute_M(CosinePolynomial((4.0, 3.0, 1.0)))


def test_M_rejects_a_nonpositive_tail_sum():
    require_nonneg(TAIL_NEGATIVE)
    solve_theta(7.32, 7.36)
    with pytest.raises(ValueError, match=r"^sum of b_1\.\.b_d must be positive$"):
        compute_M(TAIL_NEGATIVE)
    with pytest.raises(ValueError, match=r"^sum of b_1\.\.b_d must be positive$"):
        compute_C(TAIL_NEGATIVE, 4.45)


def test_M_rejects_negative_polynomial():
    with pytest.raises(NonnegativityError):
        compute_M(CosinePolynomial((1.0, 1.9)))


def test_C_classical_value():
    assert compute_C(CLASSICAL, 4.45) == pytest.approx((32.0 / 66.75) ** (2.0 / 3.0), rel=1e-14)


@pytest.mark.parametrize("B", [1e-300, 1e308])
def test_C_and_lambda_hold_their_scaling_at_extreme_B(B):
    # C and lambda scale as B^(-2/3), finite here, though B/3 or B log t is not
    scale = B ** (-2.0 / 3.0)
    assert compute_C(CLASSICAL, B) == pytest.approx(compute_C(CLASSICAL, 1.0) * scale, rel=1e-13)
    assert lambda_of(3e12, B, 0.055) == pytest.approx(lambda_of(3e12, 1.0, 0.055) * scale, rel=1e-13)
    (row,) = region_table(CLASSICAL, B=B, t_values=[3e12])
    assert 0.0 < row.eta < math.inf and 0.0 < row.lam < math.inf


def test_C_and_lambda_take_B_as_given_in_one_to_eight():
    # there B is not rescaled, so the values are those of the direct formulas
    for B in (1.0, 4.45, 7.99):
        assert compute_C(CLASSICAL, B) == (32.0 / (3.0 * B * 5.0)) ** (2.0 / 3.0)
        assert lambda_of(3e12, B, 0.055) == 0.055 / (
            (B * math.log(3e12)) ** (2.0 / 3.0) * math.log(math.log(3e12)) ** (1.0 / 3.0))


def test_C_scaling_in_B():
    assert compute_C(CLASSICAL, 4.45) == pytest.approx(
        compute_C(CLASSICAL, 1.0) * 4.45 ** (-2.0 / 3.0), rel=1e-13
    )


def test_C_coefficient_scale_invariant():
    assert compute_C(CLASSICAL.scaled(3.0), 4.45) == pytest.approx(
        compute_C(CLASSICAL, 4.45), rel=1e-14
    )


def test_C_scale_invariant_over_the_float_range():
    # (3, 4, 1) * 10**k: unscaled, 4 * sum_j b_j overflows at k = 307
    c = compute_C(CLASSICAL, 4.45)
    for k in range(-300, 308):
        b = tuple(float(f"{x:g}e{k}") for x in CLASSICAL.coeffs)
        assert compute_C(CosinePolynomial(b), 4.45) == pytest.approx(c, rel=1e-12), k


def test_C_of_lopsided_coefficients_stays_finite():
    # scaling b0 = 1e-300 up to [0.5, 1) would take b1 past the float range
    assert compute_C(CosinePolynomial((1e-300, 1e10)), 4.45) == pytest.approx(
        (4.0 / (3.0 * 4.45)) ** (2.0 / 3.0), rel=1e-14
    )


def test_eta_lambda_at_e_to_e():
    t = math.exp(math.e)
    assert eta_of(t, 2.0) == pytest.approx(2.0 * math.e ** (-2.0 / 3.0), rel=1e-13)
    assert lambda_of(t, 4.45, 0.055) == pytest.approx(
        0.055 / (4.45 * math.e) ** (2.0 / 3.0), rel=1e-13
    )


def test_lambda_frozen_reference():
    # direct-formula reference at t = 3e12, B = 4.45, M = 0.055127
    assert lambda_of(3e12, 4.45, 0.055127) == pytest.approx(
        0.0014505981550197977, rel=1e-13
    )


def test_lambda_decreasing_in_t():
    ts = np.logspace(2, 30, 40)
    lams = [lambda_of(t, 4.45, 0.055127) for t in ts]
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_domain_errors():
    with pytest.raises(DomainError):
        eta_of(2.0, 1.0)
    with pytest.raises(DomainError):
        lambda_of(math.e, 4.45, 0.05)


def test_region_table_rows():
    rows = region_table(D5, B=4.45, t_values=[1e30])
    row = rows[0]
    M = compute_M(D5)
    assert row.lam == pytest.approx(lambda_of(1e30, 4.45, M), rel=1e-14)
    assert row.beta_bound == 1.0 - row.lam
    # lambda < eta/250 needs log log t > ~9.7 here, far beyond float range,
    # so the hypothesis flag is always present at representable t
    assert row.flags == ("lambda_not_below_eta_over_250",)


def test_region_table_flags_small_t():
    rows = region_table(D5, t_values=[101.0])
    assert "t_not_above_10000" in rows[0].flags


def test_region_table_rejects_tiny_t():
    with pytest.raises(DomainError):
        region_table(D5, t_values=[50.0])


def test_lambda_eta_ratio_identity():
    # lambda/eta = M / (C * B^(2/3) * log log t)
    M = compute_M(D5)
    B = 4.45
    C = compute_C(D5, B)
    rng = np.random.default_rng(9)
    for t in rng.uniform(1e4, 1e20, size=10):
        lam = lambda_of(t, B, M)
        eta = eta_of(t, C)
        expected = M / (C * B ** (2.0 / 3.0) * math.log(math.log(t)))
        assert lam / eta == pytest.approx(expected, rel=1e-12)


def test_positive_constants():
    for p in (CLASSICAL, D4, D5):
        assert compute_M(p) > 0
        assert compute_C(p, 4.45) > 0


# each call with a nan or infinite argument, and the exception it raises
_NOT_FINITE = {
    "compute_C(B=nan)": (lambda: compute_C(D5, math.nan), ValueError),
    "compute_C(B=inf)": (lambda: compute_C(D5, math.inf), ValueError),
    "region_table(B=nan)": (lambda: region_table(D5, B=math.nan), ValueError),
    "region_table(t=nan)": (lambda: region_table(D5, t_values=[math.nan]), DomainError),
    "region_table(t=inf)": (lambda: region_table(D5, t_values=[math.inf]), DomainError),
    "eta_of(t=nan)": (lambda: eta_of(math.nan, 1.0), DomainError),
    "eta_of(t=inf)": (lambda: eta_of(math.inf, 1.0), DomainError),
    "eta_of(C=nan)": (lambda: eta_of(1e12, math.nan), ValueError),
    "eta_of(C=inf)": (lambda: eta_of(1e12, math.inf), ValueError),
    "lambda_of(t=nan)": (lambda: lambda_of(math.nan, 4.45, 0.05), DomainError),
    "lambda_of(t=inf)": (lambda: lambda_of(math.inf, 4.45, 0.05), DomainError),
    "lambda_of(B=nan)": (lambda: lambda_of(1e12, math.nan, 0.05), ValueError),
    "lambda_of(M=inf)": (lambda: lambda_of(1e12, 4.45, math.inf), ValueError),
}


@pytest.mark.parametrize("name", sorted(_NOT_FINITE))
def test_nan_and_the_infinities_are_refused(name):
    call, error = _NOT_FINITE[name]
    with pytest.raises(error):
        call()
