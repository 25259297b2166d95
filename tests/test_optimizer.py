import math
import re
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.stats import qmc

import zetafree.optimizer
from zetafree.asymptotics import compute_M
from zetafree.errors import RatioOutOfRangeError
from zetafree.optimizer import (
    _PENALTY,
    _STEP,
    MAX_ITER,
    CandidateEval,
    _critical_distance,
    _kept_starts,
    _nelder_mead,
    _objective,
    _scrambled_halton,
    _vertex_order,
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
    power_to_cosine,
    verify_nonneg,
)


def test_evaluate_candidate_classical():
    res = evaluate_candidate(ProductForm(2.0, False, (1.0,)))
    assert isinstance(res, CandidateEval)
    assert res.M > 0
    assert res.poly.coeffs == pytest.approx((3.0, 4.0, 1.0), abs=1e-14)


def test_evaluate_candidate_ratio_rejection():
    with pytest.raises(RatioOutOfRangeError):
        evaluate_candidate(ProductForm(1.0, False, (0.01,)))


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

# factor angles: phi = 0 (the constant factor), or cot(phi) = a in (0, 1000]
_ANGLE = st.one_of(st.just(0.0), st.floats(1e-3, math.pi / 2))


@st.composite
def _forms(draw):
    half = draw(st.booleans())
    x = draw(st.lists(_ANGLE, min_size=1, max_size=(32 - half) // 2))
    return half, np.array(x)


def _angles_of(roots):
    """The factor angles phi = atan(1/a) of the roots a."""
    return np.arctan2(1.0, roots)


def _reported(half, x):
    """The form optimize reports for the angles x: the roots cot(phi) of the nonzero angles."""
    return ProductForm(1.0, half, tuple(math.cos(v) / math.sin(v) for v in x if v != 0.0))


@settings(deadline=None)
@given(_forms())
@example((True, _angles_of([0.8652559, 0.1974476])))
@example((False, np.full(16, math.atan2(1.0, 6.0))))
def test_objective_sums_match_expansion(form):
    half, x = form
    pc = _power_product(half, [(math.cos(v), math.sin(v)) for v in x])
    b = power_to_cosine(pc) + (0.0,)  # b_1 = 0 if every factor is constant
    sums = _cosine_sums(pc)
    expected = (b[0], b[1], math.fsum(b[1:]), math.fsum(b))
    for got, want in zip(sums, expected):
        assert got == pytest.approx(want, rel=2e-15, abs=0.0)
    try:
        res = evaluate_candidate(_reported(half, x))
    except (ValueError, RatioOutOfRangeError):
        assume(False)
    assert -_objective(x, half) == pytest.approx(res.M, rel=1e-12, abs=0.0)


@settings(deadline=None)
@given(_forms())
@example((False, _angles_of([0.01])))
@example((False, _angles_of([3.0])))
@example((True, _angles_of([0.01, 0.01, 0.01])))
def test_objective_penalty_exactly_when_rejected(form):
    half, x = form
    product = _reported(half, x)
    b = expand_product(product).coeffs
    ratio = b[1] / b[0]
    # within rounding of a window edge the two routes may disagree
    assume(min(abs(ratio - 1.0), abs(ratio - 3.0) / 3.0) > 1e-12)
    try:
        evaluate_candidate(product)
        refused = False
    except (ValueError, RatioOutOfRangeError):
        refused = True
    assert (_objective(x, half) == _PENALTY) == refused


def test_feasible_objective_skips_expansion_and_solves_theta_once(monkeypatch):
    calls = {"expand_product": 0, "evaluate_candidate": 0, "solve_theta": 0}
    for name in calls:
        original = getattr(zetafree.optimizer, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(zetafree.optimizer, name, counted)
    value = _objective(_angles_of([0.8652559, 0.1974476]), True)
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
    for x0 in math.pi / 2 * _scrambled_halton(degree // 2, 8, 0):
        assert sum(np.array_equal(x, x0) for x in seen) == 1


@pytest.mark.parametrize("seed", [-1, 1.5, "0", True])
def test_seed_must_be_a_nonnegative_integer(monkeypatch, seed):
    def drawn(*args):
        raise AssertionError("a start point was drawn")

    monkeypatch.setattr(zetafree.optimizer, "_scrambled_halton", drawn)
    message = f"seed must be a nonnegative integer, got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        optimize(3, True, seed=seed)


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


@pytest.mark.parametrize("degree", [9, 11, 13, 14])
def test_optimize_succeeds_at_high_degree(degree):
    # expanded optima of these degrees dip below zero by rounding alone,
    # about 1e-16 * sum |b_j|, which an absolute tolerance rejects; the
    # constant factors are dropped, so the degree may be lower, of the same parity
    res = optimize(degree, degree % 2 == 1, starts=8, seed=0)
    assert res.best_poly.degree == res.best_form.degree <= degree
    assert res.best_form.degree % 2 == degree % 2
    assert isinstance(verify_nonneg(res.best_poly), Certificate)
    assert res.M == pytest.approx(compute_M(res.best_poly), rel=1e-12)


def test_trace_nondecreasing(d5_small):
    ms = [m for _, m in d5_small.trace]
    assert all(a <= b + 1e-15 for a, b in zip(ms, ms[1:]))


@pytest.mark.parametrize("degree", [3, 4, 5, 7])
def test_trace_ends_at_the_reported_M(degree):
    # the search's value of the winner is replaced by evaluate_candidate's
    res = optimize(degree, degree % 2 == 1, starts=64, seed=0)
    assert res.trace[-1][1] == res.M


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
    # _nelder_mead's initial simplex: one coordinate at a time moved by _STEP toward pi/4
    simplex = np.array([x0] * (len(x0) + 1), dtype=float)
    for k, v in enumerate(x0):
        simplex[k + 1, k] += _STEP if v < 0.25 * math.pi else -_STEP
    res = minimize(f, x0, method="Nelder-Mead",
                   options={"xatol": xatol, "fatol": 1e-15, "maxiter": MAX_ITER,
                            "initial_simplex": simplex})
    return res.x, res.fun, res.status == 0


@pytest.mark.parametrize("dim", range(1, 17))
def test_halton_equals_scipy(dim):
    for seed in (0, 1, 7, 123):
        assert np.array_equal(_scrambled_halton(dim, 128, seed), _scipy_halton(dim, 128, seed))


def test_halton_has_no_base_beyond_the_degree_cap():
    with pytest.raises(IndexError):
        _scrambled_halton(MAX_DEGREE // 2 + 1, 4, 0)


@pytest.mark.parametrize("degree", range(3, 8))
def test_nelder_mead_equals_scipy(monkeypatch, degree):
    # scipy orders the simplex with numpy's default argsort; once that order
    # and _vertex_order's differ after a tie, the iterates part, so such a run
    # is compared by its value only
    disagreements = []

    def recording_order(fsim):
        order = _vertex_order(fsim)
        disagreements.append(order != np.argsort(fsim).tolist())
        return order

    monkeypatch.setattr(zetafree.optimizer, "_vertex_order", recording_order)
    half = degree % 2 == 1
    objective = partial(_objective, half=half)
    starts = math.pi / 2 * _scrambled_halton(degree // 2, 12, degree)
    exact = 0
    for x0 in starts:
        f0 = objective(x0)
        if f0 >= 1e9:
            continue
        disagreements.clear()
        x, value, converged = _nelder_mead(objective, x0, f0, 1e-10)
        ref_x, ref_value, ref_converged = _scipy_nelder_mead(objective, x0, f0, 1e-10)
        assert value == ref_value
        if not any(disagreements):
            assert np.array_equal(x, ref_x)
            assert converged == ref_converged
            exact += 1
    assert exact >= 6


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
    match = re.fullmatch(r"(\d+) of (\d+) searches stopped at the iteration cap", res.notes[0])
    assert match and int(match.group(1)) == int(match.group(2)) == len(res.trace) > 0


# ---------------------------------------------------------------------------
# the kept starts and no process pool
# ---------------------------------------------------------------------------

def _full_search(monkeypatch, *args, **kwargs):
    # at critical distance 0 no start sees a better one, so every feasible start is searched
    with monkeypatch.context() as patch:
        patch.setattr(zetafree.optimizer, "_critical_distance", lambda m, k: 0.0)
        return optimize(*args, **kwargs)


@pytest.mark.parametrize("degree,half,starts,seed,max_iter", [
    *[(d, d % 2 == 1, 64, s, MAX_ITER) for d in (3, 4, 5) for s in (0, 1, 2)],
    # d = 4 rejects some start points at every seed: 10 of these 64
    (4, False, 64, 3, MAX_ITER),
    (7, True, 128, 0, MAX_ITER),
    # every search stops at the iteration cap
    (4, False, 64, 0, 3),
])
def test_kept_starts_reach_the_full_search(monkeypatch, degree, half, starts, seed, max_iter):
    monkeypatch.setattr(zetafree.optimizer, "MAX_ITER", max_iter)
    kept = optimize(degree, half, starts=starts, seed=seed)
    full = _full_search(monkeypatch, degree, half, starts=starts, seed=seed)
    points = (math.pi / 2 * _scrambled_halton(degree // 2, starts, seed)).tolist()
    assert len(kept.trace) < len(full.trace) == sum(_objective(x, half) < _PENALTY for x in points)
    for res in (kept, full):
        assert any(note.endswith(" cap") for note in res.notes) == (max_iter == 3)
    if max_iter == MAX_ITER:
        assert kept.M >= full.M * (1 - 1e-12)


def test_kept_starts_have_no_better_start_within_the_critical_distance():
    points = (math.pi / 2 * _scrambled_halton(2, 64, 0)).tolist()
    scores = [_objective(x, True) for x in points]
    r = _critical_distance(2, 64)
    kept = _kept_starts(points, scores, r)
    def d2(x, y):  # summed in _kept_starts' order, so the rounding is the same
        total = 0.0
        for a, b in zip(x, y):
            total += (b - a) * (b - a)
        return total

    for i, x in enumerate(points):
        better = [j for j in range(64) if (scores[j], j) < (scores[i], i)]
        isolated = all(d2(x, points[j]) > r * r for j in better)
        assert (i in kept) == (scores[i] < _PENALTY and isolated)
    assert kept == sorted(kept) and 0 < len(kept) < 64


def test_critical_distance_is_zero_at_one_start():
    assert _critical_distance(3, 1) == 0.0
    assert _critical_distance(2, 64) > _critical_distance(2, 128) > 0


def test_degree_9_reaches_the_degree_5_optimum():
    # 0.0551270809 is the d = 5 optimum, which is also the best product at d = 9
    first, second = (optimize(9, True, starts=64, seed=seed).M for seed in (0, 1))
    assert min(first, second) >= 0.0551270808
    assert first == pytest.approx(second, rel=1e-9, abs=0.0)


def test_degree_32_seed_3_reaches_the_degree_4_optimum():
    # 0.0550773827 is the d = 4 optimum, which is also the best product at d = 32
    res = optimize(32, False, starts=8, seed=3)
    assert res.M >= 0.0550773826
    assert not any(note.endswith(" cap") for note in res.notes)


def test_many_starts_build_no_square_array():
    tracemalloc.start()
    try:
        res = optimize(5, True, starts=20_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    assert 0 < len(res.trace) < 20_000


def test_notes_count_the_constant_factors():
    d5 = optimize(5, True, starts=64, seed=0)
    assert d5.notes == ()
    res = optimize(7, True, starts=128, seed=0)
    assert res.notes == ("1 of 3 factors are constant (phi = 0)",)
    assert res.best_form.degree == 5
    assert res.M == pytest.approx(d5.M, rel=1e-12, abs=0.0)


def test_best_M_does_not_fall_with_the_degree():
    # the degree-(d - 2) family is the face phi_i = 0 of the degree-d box
    for seed in (0, 1):
        results = {d: optimize(d, d % 2 == 1, starts=8, seed=seed) for d in range(2, 14)}
        for d in range(4, 14):
            assert results[d].M >= results[d - 2].M * (1 - 1e-12), (seed, d)
        for res in results.values():
            assert not any(note.endswith(" cap") for note in res.notes)


def test_a_constant_factor_is_a_strict_kkt_point():
    # raising the angle of the winner's constant factor from 0 to 1e-4 lowers M,
    # at a slope of about -3.37e-3 at d = 7 and -2.05e-4 at d = 6
    for degree, half, slope in ((7, True, -3.37e-3), (6, False, -2.05e-4)):
        res = optimize(degree, half, starts=128, seed=0)
        assert res.best_form.degree == degree - 2
        angles = _angles_of(res.best_form.roots).tolist()
        at_zero, raised = (-_objective(angles + [phi], half) for phi in (0.0, 1e-4))
        assert at_zero == pytest.approx(res.M, rel=1e-14, abs=0.0)
        assert raised < at_zero
        assert (raised - at_zero) / 1e-4 == pytest.approx(slope, rel=0.01)


@settings(deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8), st.booleans())
def test_objective_clips_each_angle_to_the_box(x, half):
    clipped = [min(max(v, 0.0), math.pi / 2) for v in x]
    assert _objective(x, half) == _objective(clipped, half)


@pytest.mark.parametrize("degree", [5.0, 5.5, True, "5", None])
def test_degree_must_be_an_integer(monkeypatch, degree):
    def drawn(*args):
        raise AssertionError("a start point was drawn")

    monkeypatch.setattr(zetafree.optimizer, "_scrambled_halton", drawn)
    message = f"degree must be an integer in 2..{MAX_DEGREE}, got {degree!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        optimize(degree, True, starts=8)


@pytest.mark.parametrize("tol", [True, "1e-3", None, 1j])
def test_tol_must_be_a_real_number(monkeypatch, tol):
    def drawn(*args):
        raise AssertionError("a start point was drawn")

    monkeypatch.setattr(zetafree.optimizer, "_scrambled_halton", drawn)
    message = f"tol must be finite and > 0, got {tol!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        optimize(3, True, starts=8, tol=tol)


@pytest.mark.parametrize("starts", [0, -1, 2.5, 3.0, True, "8"])
def test_starts_must_be_a_positive_integer(monkeypatch, starts):
    def drawn(*args):
        raise AssertionError("a start point was drawn")

    monkeypatch.setattr(zetafree.optimizer, "_scrambled_halton", drawn)
    message = f"starts must be a positive integer, got {starts!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        optimize(3, True, starts=starts)


@pytest.mark.parametrize("nth", [1, 2])
def test_a_start_that_raises_reaches_the_caller(monkeypatch, nth):
    # the nth kept start, in search order, raises; the searches before it finish
    points = (math.pi / 2 * _scrambled_halton(2, 64, 0)).tolist()
    scores = [_objective(x, True) for x in points]
    kept = _kept_starts(points, scores, _critical_distance(2, 64))
    assert len(kept) >= nth
    bad = points[kept[nth - 1]]
    assert _objective(bad, True) < _PENALTY
    nelder_mead = zetafree.optimizer._nelder_mead

    def failing(f, x0, f0, xatol):
        if x0 == bad:
            raise ArithmeticError(f"no descent from {x0!r}")
        return nelder_mead(f, x0, f0, xatol)

    monkeypatch.setattr(zetafree.optimizer, "_nelder_mead", failing)
    with pytest.raises(ArithmeticError) as info:
        optimize(5, True, starts=64, seed=0)
    assert type(info.value) is ArithmeticError
    assert str(info.value) == f"no descent from {bad!r}"


def test_inline_run_does_not_import_multiprocessing():
    code = ("import sys, zetafree.cli; zetafree.optimize(3, True, starts=64); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_multiprocessing():
    package = Path(zetafree.optimizer.__file__).parent
    for path in package.glob("*.py"):
        assert not re.search(r"^\s*(import|from)\s+multiprocessing", path.read_text(), re.M), path
