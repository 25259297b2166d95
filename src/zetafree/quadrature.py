"""Adaptive Gauss quadrature with an embedded error estimate.

Panels are scored by the difference between 15-point and 7-point Gauss
rules; the worst panel is split until the summed estimate meets the
target.  Integrands must accept numpy arrays and may return complex
values.  adaptive_quad stops at MAX_PANELS panels whether or not it met
its target; callers that need the target check the returned estimate
with _require_tol.
"""

import heapq
import itertools
import math

import numpy as np

from .errors import QuadratureError

_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X15, _W15 = np.polynomial.legendre.leggauss(15)
# adaptive_quad stops splitting at this many panels
MAX_PANELS = 4000


def _panel(f, a, b):
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    v15 = h * np.sum(_W15 * f(mid + h * _X15))
    v7 = h * np.sum(_W7 * f(mid + h * _X7))
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


def _require_tol(err, tol):
    """Raise QuadratureError if an adaptive_quad estimate err missed its tol."""
    if not err <= tol:  # a nan estimate misses too
        raise QuadratureError(
            f"quadrature stopped at the {MAX_PANELS}-panel cap with error estimate "
            f"{err:.3g} above the requested tol {tol:.3g}"
        )
