import numpy as np
import pytest

import zetafree.optimizer
from zetafree.asymptotics import compute_M
from zetafree.optimizer import (
    CandidateEval,
    Rejection,
    evaluate_candidate,
    optimize,
)
from zetafree.trigpoly import Certificate, ProductForm, expand_product, verify_nonneg


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
