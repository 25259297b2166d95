"""Mollifier weight family: shape angle, g, its convolution square w,
the scaled weight f, and their Laplace transforms.

The shape angle theta in (0, pi/2) solves
    sin^2 theta = (b1/b0) * (1 - theta*cot(theta)),
after which
    g(u) = (cos(u tan theta) - cos theta) * sec^2 theta   for |u| < theta/tan theta,
    w = g * g (convolution square),
    f(u) = lam * exp(lam*u) * w(lam*u)                    for u >= 0,
and F, W are the Laplace transforms of f and w.  g is a trigonometric
polynomial on its support, so w is elementary and w_eval evaluates it in
closed form; F(0) and -W'(0) have closed forms too, taken from series where
they cancel.  W, and F through it, is one adaptive quadrature of
w(u)*exp(-s*u) over the compact support, to W_TOL or 2**-46 of a bound on |W|.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import QuadratureError, RatioOutOfRangeError
from .quadrature import adaptive_quad

RATIO_WINDOW = (1.0, 3.0)
# W_eval's quadrature target, an absolute error, unless it is below rounding
W_TOL = 1e-11

# The shape equation reads h(theta) = b1/b0 with
#     h(theta) = sin^2(theta) / (1 - theta*cot(theta)),
# which decreases strictly from 3 (theta -> 0) to 1 (theta = pi/2), so every
# ratio in the open window has exactly one root.  The solver works with the
# gap q(theta) = 3 - h(theta), compared against the exact float 3 - b1/b0.
# Near theta = 0 both q = (3u - sin^2)/u and u = 1 - theta*cot(theta) cancel,
# so below _SERIES_THETA they come from their Taylor series in x = theta^2:
#     u = x * U(x),  3u - sin^2 = x^2 * N(x),  q = x * N(x)/U(x).
# The terms fall by about (theta/pi)^2 each; 14 of them leave a truncation
# error far below rounding at theta = 0.6.
_SERIES_THETA = 0.6
_SERIES_TERMS = 14


def _bernoulli(n_max: int) -> list:
    """The Bernoulli numbers B_0..B_n_max as exact fractions, B_1 = -1/2,
    from sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1."""
    B = [Fraction(1)]
    for n in range(1, n_max + 1):
        B.append(-sum(math.comb(n + 1, k) * B[k] for k in range(n)) / (n + 1))
    return B


_BERNOULLI = _bernoulli(2 * _SERIES_TERMS + 2)  # B_0..B_30, also zetanum's


def _shape_series():
    u, sin2 = [], []
    for n in range(1, _SERIES_TERMS + 2):
        u.append(abs(_BERNOULLI[2 * n]) * 4**n / math.factorial(2 * n))
        sin2.append(Fraction((-1) ** (n + 1) * 2 ** (2 * n - 1), math.factorial(2 * n)))
    U = tuple(float(c) for c in u[:_SERIES_TERMS])
    N = tuple(float(3 * u[n] - sin2[n]) for n in range(1, _SERIES_TERMS + 1))
    return U, N


_U_SERIES, _N_SERIES = _shape_series()

# Series in x = m^2 of the brackets of w_eval that cancel for small m:
#     m - sin m = m^3 * A(x),  3m - 4 sin m + sin m cos m = m^5 * B(x).
# On m < pi/2 the 16th terms are below 1e-22 of the first.
_OVERLAP_TERMS = 16


def _overlap_series():
    a = [Fraction((-1) ** n, math.factorial(2 * n + 3)) for n in range(_OVERLAP_TERMS)]
    b = [Fraction((-1) ** j * (4**j - 4), math.factorial(2 * j + 1))
         for j in range(2, _OVERLAP_TERMS + 2)]
    return tuple(float(c) for c in a), tuple(float(c) for c in b)


_M_MINUS_SIN, _W_TAIL = _overlap_series()

# F(0) = 2 tan^2 + 3 - 6 theta/sin(2 theta) ~ 2 theta^4/5 and the textbook
# form of -W'(0) ~ 4 theta^4/35 lose their leading terms as theta -> 0.  Over
# common denominators both are entire odd numerators over products of sines
# and cosines, which do not cancel:
#     F(0) = D(2 theta) / (cos^2(theta) sin(2 theta)),
#         D(y) = 5/2 sin y + 1/4 sin 2y - 3/2 y (1 + cos y) = y^5 P(y^2),
#     -W'(0) = N(theta) / (3 sin^3(theta) cos(theta)),
#         N(t) = ((15 - 12t^2) sin 2t - (18t - 4t^3) cos 2t - 12t + 4t^3) / 2
#              = t^7 Q(t^2).
# D vanishes again at y = pi, so F(0) takes its series only below
# _F0_SERIES_THETA.  N does not, so -W'(0) always takes it.  The 16th terms
# are below 1e-21 of the first on the ranges used.
_F0_SERIES_THETA = 1.0
_MOMENT_TERMS = 16


def _moment_series():
    def sin_c(j):  # coefficient of y^(2j+1) in sin y
        return Fraction((-1) ** j, math.factorial(2 * j + 1))

    def cos_c(j):  # coefficient of y^(2j) in cos y
        return Fraction((-1) ** j, math.factorial(2 * j))

    d = [(Fraction(5, 2) + 2 ** (2 * j - 1)) * sin_c(j) - Fraction(3, 2) * cos_c(j)
         for j in range(2, _MOMENT_TERMS + 2)]
    n = [(15 * 2 ** (2 * j + 1) * sin_c(j) - 18 * 4**j * cos_c(j)
          - 12 * 2 ** (2 * j - 1) * sin_c(j - 1) + 4 * 4 ** (j - 1) * cos_c(j - 1)) / 2
         for j in range(3, _MOMENT_TERMS + 3)]
    return tuple(float(c) for c in d), tuple(float(c) for c in n)


_F0_SERIES, _NEG_WPRIME0_SERIES = _moment_series()

# theta as a cubic in sqrt(q), least-squares fit on (0, pi/2); max error 0.011
_GUESS = (0.9557489301145423, -0.14345517047258544, 0.17519896572112303)
_MAX_NEWTON = 100


def _poly(coeffs, x):
    """sum coeffs[k] * x^k by Horner's rule: _horner's value, bit for bit."""
    value = 0.0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _horner(coeffs, x):
    """Value and derivative of sum coeffs[k] * x^k."""
    value = deriv = 0.0
    for c in reversed(coeffs):
        deriv = deriv * x + value
        value = value * x + c
    return value, deriv


def _sqrt_gap(theta):
    """sqrt(q(theta)) = sqrt(3 - h(theta)) and its derivative in theta.

    sqrt(q) rises almost linearly from 0 to sqrt(2) on (0, pi/2), which
    keeps Newton's method on it fast everywhere in the window.
    """
    if theta < _SERIES_THETA:
        x = theta * theta
        n, dn = _horner(_N_SERIES, x)
        u, du = _horner(_U_SERIES, x)
        quot = n / u
        root = math.sqrt(quot)
        dquot = (dn * u - n * du) / (u * u)
        return theta * root, (quot + x * dquot) / root
    s, c = math.sin(theta), math.cos(theta)
    u = 1.0 - theta * c / s
    du = (theta - s * c) / (s * s)
    root = math.sqrt(3.0 - s * s / u)
    dh = (2.0 * s * c * u - s * s * du) / (u * u)
    return root, -dh / (2.0 * root)


def solve_theta(b0: float, b1: float) -> float:
    """Solve the shape equation for theta in (0, pi/2).

    Requires b1/b0 in (1, 3), the range of h(theta) = sin^2(theta) /
    (1 - theta*cot(theta)) on (0, pi/2).  h is strictly decreasing, so the
    root is unique; it is found by Newton's method on sqrt(3 - h(theta)),
    safeguarded by bisection of the bracket (0, pi/2), to a relative error
    below 1e-14 at every ratio in the window.
    """
    if b0 <= 0 or b1 <= 0:
        raise ValueError("b0 and b1 must be positive")
    ratio = b1 / b0
    if not (RATIO_WINDOW[0] < ratio < RATIO_WINDOW[1]):
        raise RatioOutOfRangeError(
            f"b1/b0 = {ratio:.6g} outside the window {RATIO_WINDOW}"
        )

    target = math.sqrt(3.0 - ratio)  # 3 - ratio is exact in floating point
    lo, hi = 0.0, math.pi / 2
    theta = min(target * (_GUESS[0] + target * (_GUESS[1] + target * _GUESS[2])), hi)
    for _ in range(_MAX_NEWTON):
        value, slope = _sqrt_gap(theta)
        if value < target:
            lo = theta
        elif value > target:
            hi = theta
        else:
            break
        step = (value - target) / slope
        new = theta - step
        # convergence is quadratic: the error left is of order step^2
        if abs(step) <= 1e-9 * theta and lo <= new <= hi:
            theta = new
            break
        theta = new if lo < new < hi else 0.5 * (lo + hi)
    else:
        raise ArithmeticError(f"shape equation did not converge for ratio {ratio!r}")

    residual = math.sin(theta) ** 2 - ratio * (1.0 - theta / math.tan(theta))
    if abs(residual) > 1e-12:
        raise ArithmeticError("shape equation residual did not reach 1e-12")
    return theta


def g_support(theta: float) -> float:
    """theta*cot(theta); ValueError unless theta is in (0, pi/2), as the float pi/2 is."""
    if not 0.0 < theta <= 0.5 * math.pi:
        raise ValueError(f"theta must lie in (0, pi/2), got {theta!r}")
    return theta / np.tan(theta)


def g_eval(theta: float, u):
    """Evaluate g; zero outside |u| < theta/tan(theta)."""
    s = g_support(theta)
    u_arr = np.asarray(u, dtype=float)
    sec2 = 1.0 / np.cos(theta) ** 2
    inside = np.abs(u_arr) < s
    vals = np.where(
        inside,
        (np.cos(u_arr * np.tan(theta)) - np.cos(theta)) * sec2,
        0.0,
    )
    return float(vals) if np.isscalar(u) else vals


def w_eval(theta: float, u):
    """Convolution square (g*g)(u) for u >= 0; zero from u = 2*g_support on.

    With k = tan(theta), c = cos(theta) and m = k*max(g_support - u/2, 0),
    half the overlap of the two supports in angle units,
        k c^4 w(u) = 2m (cos(theta-m) - c)^2 - 4 (1 - c cos(theta-m)) (m - sin m)
                     + (3m - 4 sin m + sin m cos m).
    The differences of cosines are written as products of sines and the
    last two brackets come from their series in m^2, so nothing cancels
    as theta -> 0.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0):
        raise ValueError("u must be >= 0")
    k, c = np.tan(theta), np.cos(theta)
    m = k * np.maximum(g_support(theta) - 0.5 * u_arr, 0.0)
    x = m * m
    cos_diff = 2.0 * np.sin(theta - 0.5 * m) * np.sin(0.5 * m)
    half = np.sin(0.5 * (theta - m))
    # products, not ** 2: numpy squares a scalar through pow, which can differ
    # from an array's exact square in the last bit
    one_minus = 2.0 * np.sin(0.5 * theta) ** 2 + 2.0 * c * (half * half)
    m_minus_sin = m * x * _poly(_M_MINUS_SIN, x)
    tail = m * x * x * _poly(_W_TAIL, x)
    vals = (2.0 * m * (cos_diff * cos_diff) - 4.0 * one_minus * m_minus_sin + tail) / (k * c**4)
    return float(vals) if np.isscalar(u) else vals


def w0_closed(theta: float) -> float:
    """w(0) = sec^2(theta) * (theta*tan(theta) + 3*theta*cot(theta) - 3).

    That form cancels as theta -> 0, so the value comes from w_eval.
    """
    return w_eval(theta, 0.0)


def F0_closed(theta: float) -> float:
    """F(0) = 2*tan^2(theta) + 3 - 3*theta*(tan(theta) + cot(theta)).

    That form cancels as theta -> 0; below _F0_SERIES_THETA the value comes
    from the series of its numerator.
    """
    if theta < _F0_SERIES_THETA:
        y = 2.0 * theta
        x = y * y
        return y * x * x * _poly(_F0_SERIES, x) / (math.cos(theta) ** 2 * math.sin(y))
    t = math.tan(theta)
    return 2.0 * t**2 + 3.0 - 3.0 * theta * (t + 1.0 / t)


def negWprime0_closed(theta: float) -> float:
    """-W'(0), i.e. the first moment of w on its support:
        -W'(0) = csc(theta) * (csc(theta) * (15 - 12 theta^2
                 + theta (4 theta^2 - 15) cot(theta)) + 3 theta sec(theta)) / 3.

    That form cancels as theta -> 0, so the value comes from the series of
    its numerator over 3 sin^3(theta) cos(theta).
    """
    x = theta * theta
    numerator = theta * x**3 * _poly(_NEG_WPRIME0_SERIES, x)
    return numerator / (3.0 * math.sin(theta) ** 3 * math.cos(theta))


def W_eval(theta: float, s) -> complex:
    """Laplace transform of w: integral of w(u)*exp(-s*u) over the support.

    As w >= 0, |W(s)| <= W(0) max(1, e^(-Re(s) sup)), W(0) = 2 (1 - theta cot
    theta)^2 / cos^2 theta; the target is max(W_TOL, 2**-46 of that), the
    exponent capped below overflow.  g_support refuses a theta outside
    (0, pi/2); QuadratureError if the estimate misses the target.
    """
    sup = 2.0 * g_support(theta)
    s = complex(s)
    w_mass = 2.0 * (1.0 - 0.5 * sup) ** 2 / math.cos(theta) ** 2  # W(0)
    tol = max(W_TOL, 2.0**-46 * w_mass * math.exp(min(max(0.0, -s.real * sup), 709.0)))
    val, err = adaptive_quad(lambda u: w_eval(theta, u) * np.exp(-s * u), 0.0, sup, tol=tol)
    if not err <= tol:  # a nan estimate misses too
        raise QuadratureError(f"error estimate {err:.3g} above the requested tol {tol:.3g}")
    return complex(val)


@dataclass(frozen=True)
class MollifierShape:
    """Shape angle theta and the exponential scaling lam of f(u) = lam *
    exp(lam*u) * w(lam*u); the support and f(0) are computed on each access."""

    theta: float
    lam: float

    def __post_init__(self):
        g_support(self.theta)  # refuses a theta outside (0, pi/2)
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and > 0, got {self.lam!r}")

    @classmethod
    def from_coeffs(cls, b0: float, b1: float, lam: float) -> "MollifierShape":
        return cls(theta=solve_theta(b0, b1), lam=float(lam))

    @property
    def w_support(self) -> float:
        return 2.0 * g_support(self.theta)

    @property
    def f0(self) -> float:
        """f(0) = lam * w(0)."""
        return self.lam * w0_closed(self.theta)

    def f_eval(self, u):
        """f(u) = lam * exp(lam*u) * w(lam*u) for u >= 0; zero from
        lam*u = w_support on, where w_eval is exactly zero."""
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr < 0):
            raise ValueError("u must be >= 0")
        lu = np.minimum(self.lam * u_arr, self.w_support)
        w = w_eval(self.theta, lu)
        # math.exp per element: np.exp's last bits depend on numpy's CPU dispatch
        exp_lu = np.vectorize(math.exp, otypes=[float])(lu)
        # a lam near the float maximum gives inf, but only where w is not 0
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.where(w == 0.0, 0.0, self.lam * exp_lu * w)
        return float(vals) if np.isscalar(u) else vals


def F_eval(shape: MollifierShape, z) -> complex:
    """Laplace transform of f, via F(z) = W(z/lam - 1)."""
    return W_eval(shape.theta, complex(z) / shape.lam - 1.0)


def F0_eval(shape: MollifierShape, z) -> complex:
    """Pole-subtracted transform F(z) - f(0)/z."""
    z = complex(z)
    if z == 0:
        raise ZeroDivisionError("F0 is undefined at z = 0")
    return F_eval(shape, z) - shape.f0 / z
