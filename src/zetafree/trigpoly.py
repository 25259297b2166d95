"""Cosine polynomials p(theta) = sum_j b_j cos(j*theta).

Two representations are used: the raw coefficient vector, and a
manifestly nonnegative product form
scale * (1 + cos t)^e * prod_i (a_i + cos t)^2 with e in {0, 1}.
"""

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import DegreeOverflowError, NonnegativityError

MAX_DEGREE = 32
# verify_nonneg: grid points on [0, pi] that pick the candidate minima
GRID_POINTS = 200_001
# eval_poly: where |sin theta| < min((d + 1)/_HALF_ANGLE_BELOW, sqrt(3)/2),
# cos(theta) -/+ 1 is taken from the half angle, which keeps the error from
# the rounding of cos(theta) near 2e-15 * sum |b_j| elsewhere
_HALF_ANGLE_BELOW = 16.0


@dataclass(frozen=True)
class CosinePolynomial:
    """Coefficients b_0..b_d of sum b_j cos(j*theta)."""

    coeffs: Tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(x) for x in self.coeffs)
        if len(c) < 2:
            raise ValueError("need degree >= 1 (at least two coefficients)")
        if not all(math.isfinite(x) for x in c):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def scaled(self, factor: float) -> "CosinePolynomial":
        return CosinePolynomial(tuple(factor * b for b in self.coeffs))

    def to_json(self) -> list:
        return list(self.coeffs)

    @functools.cached_property
    def nonneg(self) -> Union["Certificate", "Violation"]:
        """verify_nonneg(self) at its default tol, computed once per object.

        cached_property writes into the instance __dict__, which the frozen
        dataclass allows; the fields, and so ==, hash, repr and to_json, do
        not see it.
        """
        return verify_nonneg(self)


@dataclass(frozen=True)
class ProductForm:
    """Factored nonnegative polynomial.

    Represents scale * (1 + cos t)^e * prod (a_i + cos t)^2, with
    e = 1 when half_angle_factor is set.  Every factor is >= 0 for
    real t, so the represented function is pointwise nonnegative.
    """

    scale: float
    half_angle_factor: bool
    roots: Tuple[float, ...]

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("scale must be positive and finite")
        r = tuple(float(a) for a in self.roots)
        if not all(a > 0 and math.isfinite(a) for a in r):
            raise ValueError("every root offset a_i must be positive and finite")
        object.__setattr__(self, "roots", r)

    @property
    def degree(self) -> int:
        return 2 * len(self.roots) + (1 if self.half_angle_factor else 0)

    def to_json(self) -> dict:
        return {
            "scale": self.scale,
            "half_angle_factor": self.half_angle_factor,
            "roots": list(self.roots),
        }


@dataclass(frozen=True)
class Certificate:
    """Grid-plus-refinement evidence that the minimum is >= -tol * sum |b_j|."""

    min_value: float
    argmin: float


@dataclass(frozen=True)
class Violation:
    """Witness angle where the polynomial dips below -tol * sum |b_j|."""

    theta: float
    value: float


def require_nonneg(p: CosinePolynomial) -> Certificate:
    """p's cached certificate p.nonneg; raise NonnegativityError if p dips."""
    cert = p.nonneg
    if not isinstance(cert, Certificate):
        raise NonnegativityError(f"polynomial dips to {cert.value:.3g} at theta={cert.theta:.6g}")
    return cert


def _clenshaw(b: Sequence[float], x: np.ndarray) -> np.ndarray:
    """sum b_j T_j(x) by Clenshaw's recurrence (Math. Comp. 9, 1955):
    y_k = b_k + 2x*y_{k+1} - y_{k+2} for k = d..1, then b_0 + x*y_1 - y_2."""
    two_x = 2.0 * x
    y1, y2 = np.full_like(x, b[-1]), np.zeros_like(x)
    for bk in reversed(b[1:-1]):
        y = two_x * y1
        y -= y2
        y += bk
        y1, y2 = y, y1
    return b[0] + x * y1 - y2


def _clenshaw_reinsch(b: Sequence[float], sin2: np.ndarray, cos2: np.ndarray) -> np.ndarray:
    """sum b_j cos(j*theta) from sin^2 and cos^2 of theta/2, by Reinsch's
    modification of the recurrence (Stoer and Bulirsch, Introduction to
    Numerical Analysis), accurate near theta = 0 and pi.

    With sigma = sign(cos theta) and u = 2cos(theta) - 2sigma, which is
    -4sigma times the smaller of sin^2 and cos^2 of theta/2:
    d_k = b_k + u*e_{k+1} + sigma*d_{k+1} and e_k = d_k + sigma*e_{k+1} for
    k = d..1, then b_0 + u*e_1/2 + sigma*d_1.
    """
    sigma = np.copysign(1.0, cos2 - sin2)
    u = np.minimum(sin2, cos2) * (-4.0 * sigma)
    d = np.full_like(u, b[-1])
    e = d.copy()
    for bk in reversed(b[1:-1]):
        ue = u * e
        d *= sigma
        d += ue
        d += bk
        e *= sigma
        e += d
    return b[0] + 0.5 * u * e + sigma * d


def _eval_cos(b: Sequence[float], th: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum b_j cos(j*theta) at the 1-D points th, given x = cos(th).

    Clenshaw's sum in x, then the points near x = +-1 again from the half
    angle (see eval_poly).  A caller that already holds cos(th) passes it,
    and no cosine of th is taken here.
    """
    vals = _clenshaw(b, x)
    sin_below = min(len(b) / _HALF_ANGLE_BELOW, math.sqrt(0.75))
    near = np.nonzero(np.abs(x) > math.sqrt(1.0 - sin_below**2))[0]
    if near.size:
        half = 0.5 * th[near]
        vals[near] = _clenshaw_reinsch(b, np.sin(half) ** 2, np.cos(half) ** 2)
    return vals


def eval_poly(p: CosinePolynomial, theta):
    """Evaluate sum b_j cos(j*theta); accepts scalars or arrays.

    Clenshaw's recurrence in x = cos(theta): one cosine per point, and no
    array wider than the points.  The rounding of cos(theta) is amplified
    by |T_j'(x)| <= j/|sin theta|, so where |cos theta| is near 1 (see
    _HALF_ANGLE_BELOW) the points are summed again by _clenshaw_reinsch from
    the half angle.  Against 40-digit sums the error stays below
    2.5e-15 * sum |b_j| for d <= 32 and theta in [0, pi].  Zero
    coefficients add exact zeros, so a constant polynomial evaluates to
    exactly b_0 everywhere.
    """
    th = np.asarray(theta, dtype=float).reshape(-1)
    vals = _eval_cos(p.coeffs, th, np.cos(th))
    return float(vals[0]) if np.isscalar(theta) else vals.reshape(np.shape(theta))


def power_to_cosine(power_coeffs: Sequence[float]) -> Tuple[float, ...]:
    """Convert a polynomial in c = cos(theta) to cosine coefficients.

    Uses the Chebyshev basis change cos(j*theta) = T_j(cos theta): Horner's
    rule in the Chebyshev basis, where multiplying by c maps T_0 to T_1
    and T_m to (T_{m-1} + T_{m+1})/2.  Trailing zero coefficients are
    dropped, keeping at least one.
    """
    pc = [float(a) for a in power_coeffs]
    if not pc:
        raise ValueError("empty coefficient list")
    b = [pc[-1]]
    for a in reversed(pc[:-1]):
        half = [x * 0.5 for x in b] + [0.0, 0.0]
        prod = [half[1] + a, b[0] + half[2]]
        prod += [half[m - 1] + half[m + 1] for m in range(2, len(b) + 1)]
        b = prod
    while len(b) > 1 and b[-1] == 0.0:
        b.pop()
    return tuple(b)


# m_k = E[cos^k theta] over a period: C(k, k/2) / 2^k for even k, 0 for odd
# k.  Each is exact in binary, and so is 1 - m_k.
_MOMENTS = tuple(
    math.comb(k, k // 2) / 2**k if k % 2 == 0 else 0.0 for k in range(MAX_DEGREE + 2)
)
_TAIL_WEIGHTS = tuple(1.0 - m for m in _MOMENTS)


def _power_product(half: bool, factors: Sequence[Tuple[float, float]], scale: float = 1.0) -> list:
    """Power-basis coefficients, lowest first, in c = cos(theta) of scale *
    (1 + c)^e * prod (alpha + beta*c)^2 over factors (alpha, beta); e = 1 if half."""
    pc = [scale, scale] if half else [scale]
    for alpha, beta in factors:
        # multiply by (alpha + beta*c)^2 = alpha^2 + 2*alpha*beta*c + beta^2*c^2
        a2, two_ab, b2 = alpha * alpha, 2.0 * alpha * beta, beta * beta
        pc = [0.0, 0.0] + pc + [0.0, 0.0]
        pc = [a2 * pc[k + 2] + two_ab * pc[k + 1] + b2 * pc[k] for k in range(len(pc) - 2)]
    return pc


def _cosine_sums(pc: Sequence[float]) -> Tuple[float, float, float, float]:
    """(b_0, b_1, sum_{j>=1} b_j, sum_j b_j) of the cosine form of sum_k pc[k] c^k.

    b_0 = sum_k pc_k m_k, b_1 = 2 sum_k pc_k m_{k+1}, sum_j b_j = P(1) and
    sum_{j>=1} b_j = sum_k pc_k (1 - m_k), without the full basis change.
    For a product form every pc_k >= 0, so nothing cancels.  Degree at
    most MAX_DEGREE.
    """
    b0 = b1 = tail = 0.0
    for k, a in enumerate(pc):
        b0 += a * _MOMENTS[k]
        b1 += a * _MOMENTS[k + 1]
        tail += a * _TAIL_WEIGHTS[k]
    return b0, 2.0 * b1, tail, sum(pc)


def expand_product(form: ProductForm) -> CosinePolynomial:
    """Expand a ProductForm into cosine coefficients.

    Multiplies the factors in the power basis of c = cos(theta) and then
    changes basis via power_to_cosine.
    """
    if form.degree > MAX_DEGREE:
        raise DegreeOverflowError(
            f"degree {form.degree} exceeds the configured maximum {MAX_DEGREE}"
        )
    factors = [(a, 1.0) for a in form.roots]
    b = power_to_cosine(_power_product(form.half_angle_factor, factors, float(form.scale)))
    if len(b) < 2:  # constant form is not a valid CosinePolynomial
        b = b + (0.0,)
    return CosinePolynomial(b)


def _dyadic(b: Sequence[float]) -> Tuple[list, int]:
    """Integers B_j and a shift s with b_j = B_j / 2**s exactly.

    Every float is a dyadic rational, so one power of two clears all the
    denominators.
    """
    ratios = [x.as_integer_ratio() for x in b]
    s = max(den.bit_length() - 1 for _, den in ratios)
    return [num << (s - den.bit_length() + 1) for num, den in ratios], s


def _exact_value(dyadic: Tuple[list, int], c: float) -> float:
    """sum b_j T_j(c) exactly, rounded once to the nearest float.

    Clenshaw's recurrence (see _clenshaw) on the integers
    Y_j = y_j * 2**(s + k(d - j)), where b = B / 2**s from _dyadic and
    c = n / 2**k: Y_j = B_j 2**(k(d-j)) + 2n Y_{j+1} - 2**(2k) Y_{j+2}.
    The sum is an exact rational, and int / int rounds it correctly.
    """
    B, s = dyadic
    n, den = c.as_integer_ratio()
    k = den.bit_length() - 1
    d = len(B) - 1
    y1 = y2 = 0
    for j in range(d, 0, -1):
        y1, y2 = (B[j] << (k * (d - j))) + 2 * n * y1 - (y2 << (2 * k)), y1
    return ((B[0] << (k * d)) + n * y1 - (y2 << (2 * k))) / (1 << (s + k * d))


def _derivative(a: Sequence[float], c: float) -> float:
    """sum_k a_k U_k(c) by Clenshaw's recurrence for Chebyshev polynomials
    of the second kind; with a_k = (k + 1) b_{k+1} this is P'(c) for
    P(c) = sum b_j T_j(c), since T_j' = j U_{j-1}."""
    two_c = 2.0 * c
    y1 = y2 = 0.0
    for ak in reversed(a):
        y1, y2 = ak + two_c * y1 - y2, y1
    return y1


def _derivative_root(a: Sequence[float], lo: float, hi: float) -> float:
    """A point of [lo, hi] where the float P' (see _derivative) goes from
    negative at lo to positive at hi, by bisection down to adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        slope = _derivative(a, mid)
        if slope == 0.0:
            return mid
        if slope < 0.0:
            lo = mid
        else:
            hi = mid


def verify_nonneg(p: CosinePolynomial, tol: float = 1e-12) -> Union[Certificate, Violation]:
    """Check p >= -tol * sum |b_j| on [0, pi] (evenness covers the rest).

    tol is relative: sum |b_j| is the scale of eval_poly's error and of the
    rounding in expanded coefficients.  A dense grid scan picks the
    candidate minima: every local minimum of the grid values, where a flat
    stretch counts as one minimum at its first point.  Each candidate is
    refined in c = cos(theta), where p is P(c) = sum b_j T_j(c), over the
    c-interval of its two grid neighbours.  The minimum of P there is at
    an end, or where P' (evaluated in floats) changes sign from - to +,
    found by bisection.  Each such point is scored by P(c) computed exactly
    and rounded once, so the reported value has no rounding error beyond
    that one rounding; theta is acos(c), and c = +-1 at theta = 0 and pi.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    thetas = np.linspace(0.0, np.pi, GRID_POINTS)
    vals = eval_poly(p, thetas)
    interior = (vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:])
    candidates = list(np.nonzero(interior)[0] + 1)
    if vals[0] <= vals[1]:
        candidates.append(0)
    if vals[-1] <= vals[-2]:
        candidates.append(GRID_POINTS - 1)

    dyadic = _dyadic(p.coeffs)
    slopes = [j * bj for j, bj in enumerate(p.coeffs)][1:]
    best_c, best_v = 1.0, _exact_value(dyadic, 1.0)
    for i in candidates:
        # theta increases as c decreases: hi is the end at the smaller theta
        hi = 1.0 if i <= 1 else math.cos(thetas[i - 1])
        lo = -1.0 if i >= GRID_POINTS - 2 else math.cos(thetas[i + 1])
        points = [hi, lo]
        if _derivative(slopes, lo) < 0.0 < _derivative(slopes, hi):
            points.insert(1, _derivative_root(slopes, lo, hi))
        for c in points:
            v = _exact_value(dyadic, c)
            if v < best_v:
                best_c, best_v = c, v
    best_x = math.acos(best_c)
    if best_v >= -tol * math.fsum(abs(b) for b in p.coeffs):
        return Certificate(min_value=best_v, argmin=best_x)
    return Violation(theta=best_x, value=best_v)
