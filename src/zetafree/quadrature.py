"""Gauss quadrature: strip_gauss with a proven bound, adaptive_quad with an estimate.

adaptive_quad scores panels by the difference between 15-point and 7-point Gauss
rules; the worst panel is split until the summed estimate meets the
target.  Each panel calls the integrand once, on the 21 distinct nodes
of both rules, so an integrand maps a 1-D numpy array of points to an array of
the same shape; its values may be complex.  adaptive_quad stops at
MAX_PANELS panels whether or not it met its target; callers that need
the target check the returned estimate.
"""

import functools
import heapq
import itertools
import math

import numpy as np

from .errors import QuadratureError

_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X15, _W15 = np.polynomial.legendre.leggauss(15)
# the nodes of both rules, for one integrand call per panel: both have the
# node 0 (the middle node of an odd-order rule), so it appears once, and _I7
# picks the 7-point rule's values out of the call in that rule's node order
_X21 = np.concatenate((_X15, _X7[:3], _X7[4:]))
_I7 = np.array([15, 16, 17, 7, 18, 19, 20])
# adaptive_quad stops splitting at this many panels
MAX_PANELS = 4000
STRIP_PANELS, STRIP_NODES = 8, 512  # strip_gauss's most panels, and nodes per panel
_legendre = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)  # once per n


def strip_gauss(f, a, b, strip, M, tol):
    """Integrate f over [a, b]; returns (value, bound), a proven bound <= tol.

    f continues analytically to |Im u| <= strip, where |f| <= M.  On a panel
    of half-width h, whose Bernstein ellipse rho = r + sqrt(r^2 + 1), r =
    strip/h, lies in the strip, n-node Gauss-Legendre errs by at most
    h (64/15) M rho^(2-2n) / (rho^2 - 1) (Trefethen, Approximation Theory and
    Approximation Practice, Thm. 19.3, with n - 1 nodes for n: safe under
    either node-count convention).  Of 1..STRIP_PANELS equal panels it takes
    the rule with the fewest nodes in all, and calls f once on them; it
    raises QuadratureError if that rule needs over STRIP_NODES per panel.
    """
    rules = []
    for panels in range(1, STRIP_PANELS + 1):
        h = 0.5 * (b - a) / panels
        rho = strip / h + math.hypot(strip / h, 1.0)
        scale = 0.5 * (b - a) * (64.0 / 15.0) * M / (rho * rho - 1.0)
        ratio = scale / tol  # 0 where M is far below tol, and then one node meets tol
        n = max(1, 1 + math.ceil(math.log(ratio) / (2.0 * math.log(rho)))) if ratio else 1
        n += scale * rho ** (2.0 - 2.0 * n) > tol  # one more if the logarithm rounded low
        rules.append((panels * n, panels, n, h, scale * rho ** (2.0 - 2.0 * n)))
    _, panels, n, h, bound = min(rules)
    if n > STRIP_NODES:
        raise QuadratureError(f"tol {tol:.3g} needs {n} > {STRIP_NODES} nodes per panel")
    x, w = _legendre(n)
    y = f(np.add.outer(a + h * (2.0 * np.arange(panels) + 1.0), h * x).ravel())
    return h * np.sum(y.reshape(panels, n) @ w), bound


def _panel(f, a, b):
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = f(mid + h * _X21)
    v15 = h * np.sum(_W15 * y[:15])
    v7 = h * np.sum(_W7 * y[_I7])
    return v15, abs(v15 - v7)


def adaptive_quad(f, a, b, tol=1e-11):
    """Integrate f over [a, b]; returns (value, error_estimate).

    The estimate is the exactly rounded sum (math.fsum) of the final
    panels' estimates, so it is >= 0.
    """
    if a == b:
        return 0.0, 0.0
    val, err = _panel(f, a, b)
    # heap orders by -err; counter breaks ties deterministically
    counter = itertools.count()
    heap = [(-err, next(counter), a, b, val, err)]
    total_err = err
    while len(heap) < MAX_PANELS:
        if total_err <= tol:
            # the running sum cancels when one panel's estimate dwarfs the
            # rest; stop only if the exact sum agrees
            total_err = math.fsum(item[5] for item in heap)
            if total_err <= tol:
                break
        _, _, pa, pb, pv, pe = heapq.heappop(heap)
        total_err -= pe
        mid = 0.5 * (pa + pb)
        for qa, qb in ((pa, mid), (mid, pb)):
            qv, qe = _panel(f, qa, qb)
            heapq.heappush(heap, (-qe, next(counter), qa, qb, qv, qe))
            total_err += qe
    value = sum(item[4] for item in heap)
    return value, math.fsum(item[5] for item in heap)
