"""Tests of the benchmark itself: metric names and units, anchors, tracer.

Run with `python3 -m pytest bench/test_bench.py -q` from the repository
root.  Every workload runs in its smoke size, which takes seconds.
"""

import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

run.import_package()
run.OUT_DIR.mkdir(exist_ok=True)

with open(run.ROOT / "BENCHMARK.json") as fh:
    SPEC = json.load(fh)


def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_runner():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_anchor_counts_as_failure():
    job = workloads.search_jobs(0, smoke=True)[0]
    _, results = run.run_api_pass([job])
    assert run.check_api_results([job], results, 0, False)[0]["ok"]
    job.check = partial(workloads.check_optimum, 0.06, 1e-5, None, None)
    assert not run.check_api_results([job], results, 0, False)[0]["ok"]


def test_raising_job_counts_as_failure():
    job = workloads.ApiJob("bad", "mollifier", "solve_theta", (1.0, 5.0), {},
                           lambda out: (True, {}))
    _, results = run.run_api_pass([job])
    rec = run.check_api_results([job], results, 0, False)[0]
    assert not rec["ok"] and "RatioOutOfRangeError" in rec["error"]


def test_cli_job_with_changed_stdout_fails():
    job = workloads.CliJob("eval-poly", ("eval-poly", "--coeffs", "3,4,1"))
    reference = {job.argv: b"not the real output\n"}
    _, records = run.run_cli_pass([job], 0, False, None, reference, [])
    assert not records[0]["ok"] and "differs" in records[0]["error"]


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "zetafree" or name.startswith("zetafree.")
        for attr, value in vars(module).items()
    }


def test_tracer_wraps_inner_bindings_and_restores_them():
    import zetafree.cli

    before = _bindings()
    t = tracing.Tracer()
    with t:
        for module, attr in (("optimizer", "expand_product"), ("asymptotics", "solve_theta"),
                             ("cli", "optimize"), ("mollifier", "adaptive_quad")):
            mod = sys.modules[f"zetafree.{module}"]
            assert getattr(mod, attr) is not before[(mod.__name__, attr)]
        zetafree.cli.dumps_canonical({"x": 1.0})
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert t.stats()["cli.dumps_canonical"][0] == 1


def test_traced_counts_repeat_and_outputs_match_untraced():
    jobs = workloads.search_jobs(0, smoke=True)
    _, plain = run.run_api_pass(jobs)
    traced_runs = []
    for _ in range(2):
        t = tracing.Tracer()
        _, results = run.run_api_pass(jobs, t)
        traced_runs.append((t, results))
    (t1, r1), (t2, r2) = traced_runs
    counts = {name: calls for name, (calls, _, _) in t1.stats().items()}
    assert counts == {name: calls for name, (calls, _, _) in t2.stats().items()}
    assert t1.counters == t2.counters
    assert counts["optimizer.optimize"] == 2
    assert counts["optimizer.evaluate_candidate"] == counts["trigpoly.expand_product"]
    assert t1.counters["trigpoly.eval_poly.points"] == 2 * 200_001
    for (_, out, err), (_, tout, terr) in zip(plain, r1):
        assert err is None and terr is None
        assert repr(out) == repr(tout)


def test_self_time_excludes_children():
    t = tracing.Tracer()
    t.extend([("a", 0, 100, -1), ("b", 10, 30, 0), ("c", 40, 60, 0), ("b", 45, 50, 2)], {}, job=0)
    stats = t.stats()
    assert stats["a"] == (1, 100, 60)
    assert stats["b"] == (2, 25, 25)
    assert stats["c"] == (1, 20, 15)


def test_tail_percentile_needs_ten_jobs_beyond():
    assert workloads.tail_percentile(105) == 90
    assert workloads.tail_percentile(14) == 100
    assert workloads.tail_percentile(1000) == 99


def test_job_tail_of_a_small_pass_is_the_slowest_jobs_median():
    records = [{"label": label, "latency_s": t}
               for label, t in (("a", 1.0), ("b", 2.0), ("a", 1.2), ("b", 9.0), ("b", 3.0))]
    assert run.job_tail(records, 100) == 3.0


def test_runner_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, PYTHONPATH=str(run.SRC)),
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
