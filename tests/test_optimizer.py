import math
import re
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.stats import qmc

import zetafree.optimizer
from zetafree.asymptotics import compute_M
from zetafree.errors import NoFeasiblePointError
from zetafree.optimizer import (
    _PENALTY,
    MAX_ITER,
    ROOT_BOX,
    CandidateEval,
    Rejection,
    _nelder_mead,
    _objective,
    _scrambled_halton,
    evaluate_candidate,
    optimize,
)
from zetafree.trigpoly import (
    MAX_DEGREE,
    Certificate,
    ProductForm,
    _cosine_sums,
    _power_product,
    expand_product,
    verify_nonneg,
)


def test_evaluate_candidate_classical():
    res = evaluate_candidate(ProductForm(2.0, False, (1.0,)))
    assert isinstance(res, CandidateEval)
    assert res.M > 0
    assert res.poly.coeffs == pytest.approx((3.0, 4.0, 1.0), abs=1e-14)


def test_evaluate_candidate_ratio_rejection():
    res = evaluate_candidate(ProductForm(1.0, False, (0.01,)))
    assert isinstance(res, Rejection)
    assert res.reason == "ratio_outside_window"


def test_evaluate_candidate_d5_optimum():
    res = evaluate_candidate(ProductForm(1.0, True, (0.8652559, 0.1974476)))
    assert isinstance(res, CandidateEval)
    assert res.M == pytest.approx(0.055127, abs=1e-5)


def test_evaluate_candidate_solves_theta_once(monkeypatch):
    calls = []
    solve = zetafree.optimizer.solve_theta

    def counted(b0, b1):
        calls.append((b0, b1))
        return solve(b0, b1)

    monkeypatch.setattr(zetafree.optimizer, "solve_theta", counted)
    res = evaluate_candidate(ProductForm(1.0, True, (0.8652559, 0.1974476)))
    assert isinstance(res, CandidateEval)
    assert len(calls) == 1
    monkeypatch.undo()
    assert res.M == pytest.approx(compute_M(res.poly), rel=1e-15)


# ---------------------------------------------------------------------------
# the objective reads b0, b1 and the sums off the power basis
# ---------------------------------------------------------------------------

# log root offsets inside the objective's box (twice ROOT_BOX each way)
_LOG_OFFSET = st.floats(math.log(ROOT_BOX[0] * 0.5) + 1e-9, math.log(ROOT_BOX[1] * 2.0) - 1e-9)


@st.composite
def _forms(draw):
    half = draw(st.booleans())
    x = draw(st.lists(_LOG_OFFSET, min_size=1, max_size=(32 - half) // 2))
    return half, np.array(x)


@settings(deadline=None)
@given(_forms())
@example((True, np.log([0.8652559, 0.1974476])))
@example((False, np.full(16, math.log(6.0) - 1e-9)))
def test_objective_sums_match_expansion(form):
    half, x = form
    roots = np.exp(x).tolist()
    product = ProductForm(1.0, half, tuple(roots))
    b = expand_product(product).coeffs
    sums = _cosine_sums(_power_product(half, roots))
    expected = (b[0], b[1], math.fsum(b[1:]), math.fsum(b))
    for got, want in zip(sums, expected):
        assert got == pytest.approx(want, rel=2e-15, abs=0.0)
    res = evaluate_candidate(product)
    assume(isinstance(res, CandidateEval))
    assert -_objective(x, half) == pytest.approx(res.M, rel=1e-12, abs=0.0)


@settings(deadline=None)
@given(_forms())
@example((False, np.log([0.01])))
@example((False, np.log([3.0])))
@example((True, np.log([0.01, 0.01, 0.01])))
def test_objective_penalty_exactly_when_rejected(form):
    half, x = form
    product = ProductForm(1.0, half, tuple(np.exp(x).tolist()))
    b = expand_product(product).coeffs
    ratio = b[1] / b[0]
    # within rounding of a window edge the two routes may disagree
    assume(min(abs(ratio - 1.0), abs(ratio - 3.0) / 3.0) > 1e-12)
    rejected = isinstance(evaluate_candidate(product), Rejection)
    assert (_objective(x, half) == _PENALTY) == rejected


def test_feasible_objective_skips_expansion_and_solves_theta_once(monkeypatch):
    calls = {"expand_product": 0, "evaluate_candidate": 0, "solve_theta": 0}
    for name in calls:
        original = getattr(zetafree.optimizer, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(zetafree.optimizer, name, counted)
    value = _objective(np.log([0.8652559, 0.1974476]), True)
    assert calls == {"expand_product": 0, "evaluate_candidate": 0, "solve_theta": 1}
    assert -value == pytest.approx(0.055127, abs=1e-5)


@pytest.mark.parametrize("degree,half", [(5, True), (4, False)])
def test_each_start_point_is_evaluated_once(monkeypatch, degree, half):
    seen = []
    objective = zetafree.optimizer._objective

    def recorded(x, half):
        seen.append(np.array(x, copy=True))
        return objective(x, half)

    monkeypatch.setattr(zetafree.optimizer, "_objective", recorded)
    optimize(degree, half, starts=8, seed=0)
    lo, hi = math.log(ROOT_BOX[0]), math.log(ROOT_BOX[1])
    for x0 in lo + (hi - lo) * _scrambled_halton(degree // 2, 8, 0):
        assert sum(np.array_equal(x, x0) for x in seen) == 1


def test_parity_validation():
    with pytest.raises(ValueError):
        optimize(4, True, starts=1)
    with pytest.raises(ValueError):
        optimize(5, False, starts=1)
    with pytest.raises(ValueError):
        optimize(1, False, starts=1)


@pytest.fixture(scope="module")
def d5_small():
    return optimize(5, True, starts=8, seed=0)


def test_determinism(d5_small):
    again = optimize(5, True, starts=8, seed=0)
    assert again == d5_small


def test_monotone_in_starts():
    few = optimize(4, False, starts=3, seed=0)
    more = optimize(4, False, starts=10, seed=0)
    assert more.M >= few.M - 1e-15


def test_result_consistency(d5_small):
    res = d5_small
    expanded = expand_product(res.best_form)
    assert np.allclose(expanded.coeffs, res.best_poly.coeffs, atol=1e-12)
    assert isinstance(verify_nonneg(res.best_poly, tol=1e-12), Certificate)
    assert all(b > -1e-12 for b in res.best_poly.coeffs)
    assert compute_M(res.best_poly) == pytest.approx(res.M, rel=1e-12)


def test_reported_values_are_the_winners_evaluation(d5_small):
    cand = evaluate_candidate(d5_small.best_form)
    assert (cand.M, cand.theta, cand.poly) == (d5_small.M, d5_small.theta, d5_small.best_poly)


def test_optimize_expands_only_the_winner(monkeypatch):
    calls = {"evaluate_candidate": 0, "expand_product": 0}
    for modname, module in list(sys.modules.items()):
        if modname != "zetafree" and not modname.startswith("zetafree."):
            continue
        for name in calls:
            if hasattr(module, name):
                original = getattr(module, name)

                def counted(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    optimize(5, True, starts=8, seed=0)
    assert calls == {"evaluate_candidate": 1, "expand_product": 1}


def test_rejected_winner_names_the_reason(monkeypatch):
    monkeypatch.setattr(zetafree.optimizer, "evaluate_candidate",
                        lambda form: Rejection("ratio_outside_window"))
    with pytest.raises(NoFeasiblePointError, match="ratio_outside_window"):
        optimize(5, True, starts=2, seed=0)


@pytest.mark.parametrize("degree", [9, 11, 13, 14])
def test_optimize_succeeds_at_high_degree(degree):
    # expanded optima of these degrees dip below zero by rounding alone,
    # about 1e-16 * sum |b_j|, which an absolute tolerance rejects
    res = optimize(degree, degree % 2 == 1, starts=8, seed=0)
    assert res.best_poly.degree == degree
    assert isinstance(verify_nonneg(res.best_poly), Certificate)
    assert res.M == pytest.approx(compute_M(res.best_poly), rel=1e-12)


def test_trace_nondecreasing(d5_small):
    ms = [m for _, m in d5_small.trace]
    assert all(a <= b + 1e-15 for a, b in zip(ms, ms[1:]))


def test_local_flat_top(d5_small):
    base = d5_small.M
    roots = np.array(d5_small.best_form.roots)
    for i in range(len(roots)):
        for delta in (-1e-3, 1e-3):
            perturbed = roots.copy()
            perturbed[i] += delta
            res = evaluate_candidate(ProductForm(1.0, True, tuple(perturbed)))
            assert isinstance(res, CandidateEval)
            assert res.M <= base + 1e-7


# ---------------------------------------------------------------------------
# the built-in Halton and Nelder-Mead against scipy's
# ---------------------------------------------------------------------------

def _scipy_halton(dim, n, seed):
    return qmc.Halton(d=dim, scramble=True, seed=seed).random(n)


def _scipy_nelder_mead(f, x0, f0, xatol):
    res = minimize(f, x0, method="Nelder-Mead",
                   options={"xatol": xatol, "fatol": 1e-15, "maxiter": MAX_ITER})
    return res.x, res.fun, res.status == 0


@pytest.mark.parametrize("dim", range(1, 17))
def test_halton_equals_scipy(dim):
    for seed in (0, 1, 7, 123):
        assert np.array_equal(_scrambled_halton(dim, 128, seed), _scipy_halton(dim, 128, seed))


def test_halton_has_no_base_beyond_the_degree_cap():
    with pytest.raises(IndexError):
        _scrambled_halton(MAX_DEGREE // 2 + 1, 4, 0)


@pytest.mark.parametrize("degree", range(3, 8))
def test_nelder_mead_equals_scipy(degree):
    half = degree % 2 == 1
    lo, hi = math.log(ROOT_BOX[0]), math.log(ROOT_BOX[1])
    objective = partial(_objective, half=half)
    starts = lo + (hi - lo) * _scrambled_halton(degree // 2, 12, degree)
    compared = 0
    for x0 in starts:
        f0 = objective(x0)
        if f0 >= 1e9:
            continue
        x, value, converged = _nelder_mead(objective, x0, f0, 1e-10)
        ref_x, ref_value, ref_converged = _scipy_nelder_mead(objective, x0, f0, 1e-10)
        assert np.array_equal(x, ref_x)
        assert value == ref_value
        assert converged == ref_converged
        compared += 1
    assert compared >= 6


def _plateau(x):
    # exact plateaus, so that values tie and the iterates depend on the tie order
    return round(math.fsum((v - 0.3) ** 2 for v in x) * 20) / 20


def _stable_argsort(fsim):
    return np.argsort(fsim, kind="stable").tolist()


@pytest.mark.parametrize("m", [3, 5, 8])
def test_nelder_mead_breaks_ties_by_vertex_index(monkeypatch, m):
    # numpy's default argsort orders ties differently on different CPUs, so
    # scipy is no reference here; the order must be the index-stable one
    ties = []

    def recording_order(fsim):
        ties.append(len(set(fsim)) < len(fsim))
        return _stable_argsort(fsim)

    monkeypatch.setattr(zetafree.optimizer, "_vertex_order", recording_order)
    starts = np.random.default_rng(m).uniform(-2.0, 2.0, size=(10, m)).tolist()
    reference = [_nelder_mead(_plateau, x0, _plateau(x0), 1e-10) for x0 in starts]
    assert any(ties)
    monkeypatch.undo()
    for x0, ref in zip(starts, reference):
        assert _nelder_mead(_plateau, x0, _plateau(x0), 1e-10) == ref


@pytest.mark.parametrize("degree,half", [(6, False), (7, True), (8, False)])
def test_optimize_breaks_ties_by_vertex_index(monkeypatch, degree, half):
    res = optimize(degree, half, starts=16, seed=0)
    monkeypatch.setattr(zetafree.optimizer, "_vertex_order", _stable_argsort)
    assert res == optimize(degree, half, starts=16, seed=0)


@pytest.mark.parametrize("degree,half", [(5, True), (4, False)])
@pytest.mark.parametrize("seed", [0, 3])
def test_optimize_equals_scipy_driven_reference(monkeypatch, degree, half, seed):
    res = optimize(degree, half, starts=64, seed=seed)
    monkeypatch.setattr(zetafree.optimizer, "_scrambled_halton", _scipy_halton)
    monkeypatch.setattr(zetafree.optimizer, "_nelder_mead", _scipy_nelder_mead)
    assert res == optimize(degree, half, starts=64, seed=seed)


# ---------------------------------------------------------------------------
# tol and the iteration cap
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_tol_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol"):
        optimize(3, True, starts=1, tol=tol)


def test_notes_empty_when_every_start_converges(d5_small):
    assert d5_small.notes == ()


def test_notes_count_starts_at_iteration_cap(monkeypatch):
    monkeypatch.setattr(zetafree.optimizer, "MAX_ITER", 3)
    res = optimize(4, False, starts=8, seed=0)
    assert len(res.notes) == 1
    match = re.fullmatch(r"(\d+) of 8 starts stopped at the iteration cap", res.notes[0])
    assert match and int(match.group(1)) >= len(res.trace) > 0
