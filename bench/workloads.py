"""Job lists, warm-ups and correctness anchors of the three workloads.

Every input is generated from the workload seed alone.  Points that set
a job's cost (the abscissa of a prime sum, the height of a transform) are
drawn one per stratum, so a pass costs about the same at every seed.

A job names the public function it calls by module and attribute; the
function is looked up when the job runs, so a traced run goes through
the same binding a user's call would.
"""

import cmath
import json
import random
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Tuple

WORKLOADS = ("search", "certify", "cli-cold")

MAX_N = 10**7
ROOTS_D5 = (0.1974476, 0.8652559)
M_D5, M_D5_TOL, ROOTS_TOL = 0.055127, 1e-5, 2e-4
M_D4, M_D4_TOL = 0.05507, 1e-4
LEMMA_GRID = tuple(
    (sigma, t, eta)
    for sigma in (1.3, 1.5, 2.0)
    for t in (0.0, 5.0, 10.0, 20.0)
    for eta in (0.1, 0.25, 0.5)
)
MIDPOINT_CASES = tuple((sigma, eta) for sigma in (1.3, 1.5, 2.0) for eta in (0.05, 0.1, 0.25))
CLOSED_FORM_THETAS = (0.3, 0.6, 0.9, 1.2, 1.5699)
CLI_TIMEOUT_S = 120.0
EDGE_TIMEOUT_S = 10.0
EDGE_ARGV = ("verify-trig", "--coeffs", "1,0", "--x", "2", "--y", "5",
             "--tol", "1e-3", "--max-n", "1e7")

# Code a fresh interpreter runs to set a workload up: import, then the
# first call that pays the workload's lazy set-up.
SETUP_CODE = {
    "search": (
        "import zetafree\n"
        f"zetafree.evaluate_candidate(zetafree.ProductForm(1.0, True, {ROOTS_D5!r}))\n"
    ),
    "certify": (
        "import zetafree\n"
        "from zetafree.zetanum import tail_bound\n"
        f"zetafree.neg_zeta_logderiv(2.0, tail_bound({MAX_N}, 2.0), max_n={MAX_N})\n"
    ),
    "cli-cold": "import zetafree.cli\n",
}


def warm_up(workload):
    """Run the workload's set-up in this process.

    Returns (first_s, again_s): the set-up call timed cold and timed once
    more warm.  For `certify` the difference is the prime-power sieve to
    N = 10**7; the other workloads have no table to build.
    """
    import time

    import zetafree
    from zetafree.zetanum import tail_bound

    def call():
        if workload == "search":
            zetafree.evaluate_candidate(zetafree.ProductForm(1.0, True, ROOTS_D5))
        else:
            zetafree.neg_zeta_logderiv(2.0, tail_bound(MAX_N, 2.0), max_n=MAX_N)

    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return times[0], times[1]


# ---------------------------------------------------------------------------
# Job types
# ---------------------------------------------------------------------------

@dataclass
class ApiJob:
    """One in-process call of a public zetafree function."""

    kind: str
    module: str
    function: str
    args: tuple
    kwargs: Dict[str, object]
    check: Callable[[object], Tuple[bool, dict]]

    @property
    def label(self):
        inner = ", ".join([repr(a) for a in self.args]
                          + [f"{k}={v!r}" for k, v in self.kwargs.items()])
        return f"{self.module}.{self.function}({inner})"

    def call(self):
        fn = getattr(sys.modules[f"zetafree.{self.module}"], self.function)
        return fn(*self.args, **self.kwargs)


@dataclass
class CliJob:
    """One `python -m zetafree.cli` process."""

    kind: str
    argv: Tuple[str, ...]
    timeout_s: float = CLI_TIMEOUT_S

    @property
    def label(self):
        return "zetafree " + " ".join(self.argv)


# ---------------------------------------------------------------------------
# Anchors.  Each returns (ok, facts); facts go into the run record.
# ---------------------------------------------------------------------------

def check_optimum(target_M, M_tol, target_roots, roots_tol, res):
    roots = sorted(res.best_form.roots)
    facts = {"M": res.M, "roots": roots, "theta": res.theta, "notes": list(res.notes)}
    ok = abs(res.M - target_M) <= M_tol
    if target_roots is not None:
        ok = ok and len(roots) == len(target_roots) and all(
            abs(r - t) <= roots_tol for r, t in zip(roots, sorted(target_roots))
        )
    return ok, facts


def check_report(max_excess, report):
    """VerificationReport.passed, optionally with the acceptance-06 excess limit."""
    excess = report.abs_diff - (report.lhs_error_bound + report.rhs_error_bound)
    facts = {"passed": bool(report.passed), "abs_diff": report.abs_diff, "excess": excess}
    ok = bool(report.passed)
    if max_excess is not None:
        ok = ok and excess <= max_excess
    return ok, facts


def check_midpoint(report):
    return bool(report.passed), {"passed": bool(report.passed), "margin": report.params["margin"]}


def check_trig(report):
    nonneg = report.rhs >= -report.rhs_error_bound
    facts = {"passed": bool(report.passed), "nonnegative": bool(nonneg), "abs_diff": report.abs_diff}
    return bool(report.passed) and nonneg, facts


def check_closed_form(closed, W):
    dev = abs(W.real - closed) / max(1.0, abs(closed))
    return dev <= 1e-8, {"closed": closed, "quadrature": W.real, "rel_dev": dev}


def check_F0(f0, z, real_transform, value):
    """|F(z)| <= F(Re z), because w >= 0; F(z) = F0(z) + f(0)/z."""
    full = abs(value + f0 / z)
    ok = cmath.isfinite(value) and full <= real_transform * (1.0 + 1e-9) + 1e-12
    return ok, {"abs_F": full, "F_re": real_transform}


def check_series(reference, value):
    dev = abs(value.value - reference)
    return dev <= value.tail_bound + 1e-12, {"dev": dev, "tail_bound": value.tail_bound, "N": value.N}


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _strata(rng, n, lo, hi):
    """One uniform draw from each of n equal slices of [lo, hi], in order."""
    return [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]


def _d5_optimum():
    import zetafree

    return zetafree.expand_product(zetafree.ProductForm(1.0, True, ROOTS_D5))


def search_jobs(seed, smoke=False):
    d5_starts, d4_starts = (1, 8) if smoke else (64, 64)
    return [
        ApiJob("optimize_d5", "optimizer", "optimize", (5, True),
               {"starts": d5_starts, "seed": seed},
               partial(check_optimum, M_D5, M_D5_TOL, ROOTS_D5, ROOTS_TOL)),
        ApiJob("optimize_d4", "optimizer", "optimize", (4, False),
               {"starts": d4_starts, "seed": seed},
               partial(check_optimum, M_D4, M_D4_TOL, None, None)),
    ]


def certify_jobs(seed, smoke=False):
    """About 100 zeta-side and mollifier jobs with a warm prime-power table."""
    import mpmath as mp

    import zetafree

    rng = random.Random(seed)
    jobs = []
    kw = {"max_n": MAX_N}

    grid = LEMMA_GRID[-2:] if smoke else LEMMA_GRID
    for sigma, t, eta in grid:
        jobs.append(ApiJob("lemma_grid", "zetanum", "lemma_check", (complex(sigma, t), eta),
                           dict(tol=1e-3, **kw), partial(check_report, 1e-6)))

    n = 1 if smoke else 5
    sigmas = [2.0] if smoke else [1.3] + _strata(rng, n - 1, 1.35, 2.0)
    etas = _strata(rng, n, 0.15, 0.5)
    for sigma, eta in zip(sigmas, etas):
        t = 20.0 * rng.random()
        jobs.append(ApiJob("lemma_fine", "zetanum", "lemma_check", (complex(sigma, t), eta),
                           dict(tol=1e-6, **kw), partial(check_report, None)))

    for sigma, eta in (MIDPOINT_CASES[-1:] if smoke else MIDPOINT_CASES):
        jobs.append(ApiJob("midpoint", "zetanum", "midpoint_bound_check", (sigma, eta),
                           dict(tol=1e-4, **kw), check_midpoint))

    classical = zetafree.CosinePolynomial((3.0, 4.0, 1.0))
    polys = [classical] if smoke else [classical, _d5_optimum()]
    n = 1 if smoke else 20
    for p in polys:
        xs = [2.5] if smoke else _strata(rng, n, 1.25, 3.0)
        for x in xs:
            y = 50.0 * rng.random()
            jobs.append(ApiJob("applied_trig", "zetanum", "applied_trig_sum", (p, x, y),
                               dict(tol=1e-3, **kw), check_trig))

    for theta in (CLOSED_FORM_THETAS[1:2] if smoke else CLOSED_FORM_THETAS):
        jobs.append(ApiJob("closed_form", "mollifier", "W_eval", (theta, -1.0), {},
                           partial(check_closed_form, zetafree.F0_closed(theta))))

    shape = zetafree.MollifierShape.from_coeffs(3.0, 4.0, lam=1.0)
    n = 1 if smoke else 5
    for y in _strata(rng, n, 0.0, 20.0):
        z = complex(2.0 + 2.0 * rng.random(), y)
        real_transform = zetafree.F_eval(shape, z.real).real
        jobs.append(ApiJob("transform", "mollifier", "F0_eval", (shape, z), {},
                           partial(check_F0, shape.f0, z, real_transform)))

    n = 1 if smoke else 5
    for sigma in _strata(rng, n, 2.0, 3.0):
        s = complex(sigma, 30.0 * rng.random())
        with mp.workdps(30):
            zs = mp.mpc(s.real, s.imag)
            reference = complex(-mp.zeta(zs, derivative=1) / mp.zeta(zs))
        jobs.append(ApiJob("series", "zetanum", "neg_zeta_logderiv", (s, 1e-4),
                           dict(kw), partial(check_series, reference)))
    return jobs


def cli_jobs(seed, smoke=False, edge=False):
    """Each healthy command twice per pass, so stdout can be compared byte for byte."""
    rng = random.Random(seed)
    if smoke:
        commands = [("eval-poly", "--coeffs", "3,4,1")]
    else:
        d5 = ",".join(repr(c) for c in _d5_optimum().coeffs)
        sigma, t, eta = rng.choice(LEMMA_GRID)
        heights = sorted(10.0 ** rng.uniform(12.0, 20.0) for _ in range(3))
        commands = [
            ("eval-poly", "--coeffs", "3,4,1"),
            ("eval-poly", "--coeffs", d5),
            ("region", "--coeffs", "3,4,1", "--t", ",".join(repr(h) for h in heights)),
            ("mollifier-table", "--b0", "3", "--b1", "4", "--lam", repr(rng.uniform(0.5, 1.0)),
             "--step", "0.01"),
            ("verify-lemma", "--sigma", repr(sigma), "--t", repr(t), "--eta", repr(eta),
             "--tol", "1e-3", "--max-n", "1e7"),
            # x below 1.5 needs the full N = 10**7 table in every process
            ("verify-trig", "--coeffs", "3,4,1", "--x", repr(rng.uniform(1.25, 1.5)),
             "--y", repr(rng.uniform(0.0, 50.0)), "--tol", "1e-3", "--max-n", "1e7"),
            ("optimize", "--degree", "3", "--half-angle-factor", "--starts", "8",
             "--seed", str(seed)),
        ]
    jobs = [CliJob(argv[0], tuple(argv)) for argv in commands] * 2
    if edge:
        jobs.append(CliJob("edge", EDGE_ARGV, EDGE_TIMEOUT_S))
    return jobs


def cli_facts(stdout):
    """M or the verdict from a command's canonical JSON, for the run record."""
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return {}
    facts = {k: result[k] for k in ("M", "pass", "theta") if k in result}
    if "rows" in result:
        facts["rows"] = len(result["rows"])
    return facts


def make_jobs(name, seed, smoke=False, edge=False):
    if name == "search":
        return search_jobs(seed, smoke)
    if name == "certify":
        return certify_jobs(seed, smoke)
    if name == "cli-cold":
        return cli_jobs(seed, smoke, edge)
    raise ValueError(f"unknown workload {name!r}")


def tail_percentile(jobs_per_pass):
    """Highest of p99/p95/p90/p75 with at least ten jobs of a pass beyond it.

    With fewer jobs per pass (search: 2, cli-cold: 14) it returns 100: the
    tail is then the slowest job's median over its repeats in the run.
    """
    for p in (99, 95, 90, 75):
        if jobs_per_pass * (100 - p) / 100.0 >= 10:
            return p
    return 100
