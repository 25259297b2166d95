"""zetafree benchmark: one run of one workload.

    python3 bench/run.py --workload {search,certify,cli-cold} --seed N \
        --seconds S --trace {0,1} [--smoke] [--edge]

One client, closed loop, no threads: each job starts when the previous one
has finished.  A run repeats passes over the workload's job list until
--seconds have gone by (at least one pass).  Every job is checked against
its correctness anchor; a job that raises, exits nonzero, times out or
misses its anchor is failed.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, checks that tracing changes no job output, and reports
the per-layer metrics of one traced pass plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The run record (environment, per-job
results, M and verdicts) goes to .bench_out/ at the repository root, and
with --trace 1 the spans too.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
POLL_S = 0.002

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}

TRACED_FUNCTIONS = (
    "optimizer.optimize",
    "optimizer.evaluate_candidate",
    "trigpoly.expand_product",
    "asymptotics.compute_M",
    "mollifier.solve_theta",
    "trigpoly.verify_nonneg",
    "zetanum.neg_zeta_logderiv",
    "zetanum.lemma_lhs",
    "zetanum.lemma_rhs",
    "zetanum.zeta_em",
    "zetanum.midpoint_bound_check",
    "zetanum.applied_trig_sum",
    "quadrature.adaptive_quad",
    "mollifier.W_eval",
    "mollifier.F0_eval",
    "mollifier.w_eval",
    "cli.dumps_canonical",
)
CLI_SUBCOMMANDS = ("eval-poly", "region", "mollifier-table", "verify-lemma", "verify-trig", "optimize")


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for fn in TRACED_FUNCTIONS:
        units.update({f"{fn}.calls": "count", f"{fn}.total_s": "s",
                      f"{fn}.self_s": "s", f"{fn}.mean_us": "us"})
    units["optimizer.reject_ratio"] = "ratio"
    units.update({"trigpoly.eval_poly.calls": "count", "trigpoly.eval_poly.points": "count",
                  "trigpoly.eval_poly.total_s": "s"})
    units["zetanum.sieve_s"] = "s"
    units.update({"quadrature.adaptive_quad.integrand_points": "count",
                  "quadrature.adaptive_quad.short_of_tol": "count"})
    units["cli.import_s"] = "s"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.process_s"] = "s"
        units[f"cli.{sub}.in_process_s"] = "s"
    units["bench.trace_overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "zetafree").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass
class ProcResult:
    elapsed_s: float
    returncode: int
    timed_out: bool
    stdout: bytes
    stderr: str
    rss_mb: float


def run_process(argv, timeout_s):
    """Run argv from the repository root and wait for it.

    Returns its wall time, exit code, output and peak resident memory
    (from wait4).  On timeout the process is killed and reaped.
    """
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=child_env())
        timed_out = False
        status = usage = None
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - t0 >= timeout_s:
                    timed_out = True
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(POLL_S)
        finally:
            if usage is None:  # interrupted while waiting
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ProcResult(elapsed, proc.returncode, timed_out, out.read(),
                          err.read()[-2000:].decode(errors="replace"), usage.ru_maxrss / 1024.0)


def measure_setup(workload, samples):
    """Wall time of fresh interpreters that import zetafree and warm up."""
    from workloads import SETUP_CODE

    times = []
    for _ in range(samples):
        proc = run_process([sys.executable, "-c", SETUP_CODE[workload]], 600.0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed: {proc.stderr}")
        times.append(proc.elapsed_s)
    return times


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def _digest(data):
    return hashlib.sha256(data).hexdigest()


def run_api_pass(jobs, tracer=None):
    """Call each job once; returns (wall_s, [(latency_s, output, error)])."""
    results = []
    with tracer or contextlib.nullcontext():
        t_pass = time.perf_counter()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            t0 = time.perf_counter()
            try:
                out, error = job.call(), None
            except Exception as exc:  # a raising job is a failed job; the run goes on
                out, error = None, f"{type(exc).__name__}: {exc}"
            results.append((time.perf_counter() - t0, out, error))
        wall = time.perf_counter() - t_pass
    return wall, results


def check_api_results(jobs, results, pass_no, traced):
    records = []
    for i, (job, (latency, out, error)) in enumerate(zip(jobs, results)):
        ok, facts = False, {}
        if error is None:
            try:
                ok, facts = job.check(out)
            except Exception as exc:  # an output the anchor cannot read is a miss
                error = f"anchor: {type(exc).__name__}: {exc}"
        records.append({
            "pass": pass_no, "traced": traced, "index": i, "kind": job.kind, "label": job.label,
            "latency_s": latency, "ok": bool(ok and error is None), "error": error,
            "facts": facts, "output_sha256": None if error else _digest(repr(out).encode()),
        })
    return records


def run_cli_pass(jobs, pass_no, traced, tracer, reference, import_times):
    """Run each job as a fresh process; returns (wall_s, records).

    `reference` maps argv to the first stdout seen in this run; a later
    stdout that differs fails its job.
    """
    from workloads import cli_facts

    records = []
    t_pass = time.perf_counter()
    for i, job in enumerate(jobs):
        spans_path = OUT_DIR / f"spans-{os.getpid()}-{i}.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path), *job.argv]
        else:
            argv = [sys.executable, "-m", "zetafree.cli", *job.argv]
        proc = run_process(argv, job.timeout_s)
        if traced and spans_path.exists():
            with open(spans_path) as fh:
                child = json.load(fh)
            spans_path.unlink()
            tracer.extend(child["spans"], child["counters"], job=i)
            import_times.append(child["import_s"])
        error = None
        if proc.timed_out:
            error = f"timed out after {job.timeout_s} s"
        elif proc.returncode != 0:
            error = f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        elif reference.setdefault(job.argv, proc.stdout) != proc.stdout:
            error = "stdout differs from an earlier run of the same command"
        records.append({
            "pass": pass_no, "traced": traced, "index": i, "kind": job.kind, "label": job.label,
            "latency_s": proc.elapsed_s, "ok": error is None, "error": error,
            "facts": cli_facts(proc.stdout), "rss_mb": proc.rss_mb,
            "output_sha256": _digest(proc.stdout),
        })
    return time.perf_counter() - t_pass, records


def cli_in_process(jobs, reference):
    """Warm `zetafree.cli.main(argv)` per distinct command: run twice, time the second."""
    import zetafree.cli

    times, records = {}, []
    for argv in dict.fromkeys(job.argv for job in jobs if job.kind != "edge"):
        for _ in range(2):
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = zetafree.cli.main(list(argv))
            elapsed = time.perf_counter() - t0
        out = buf.getvalue().encode()
        error = None
        if code != 0:
            error = f"exit code {code}"
        elif reference.get(argv, out) != out:
            error = "in-process stdout differs from the process stdout"
        times.setdefault(argv[0], []).append(elapsed)
        records.append({"pass": "in_process", "traced": False, "kind": argv[0],
                        "label": "zetafree.cli.main " + " ".join(argv), "latency_s": elapsed,
                        "ok": error is None, "error": error, "output_sha256": _digest(out)})
    return {sub: statistics.median(ts) for sub, ts in times.items()}, records


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def job_tail(records, p):
    """Latency at percentile p of all jobs; with p = 100, the slowest job's median.

    A pass with too few jobs for a percentile (see `tail_percentile`) runs
    each job more than once per run, so the median of the slowest job over
    its repeats stands for the tail; a single maximum would follow noise.
    """
    if p < 100:
        latencies = [r["latency_s"] for r in records]
        return statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]
    repeats = {}
    for r in records:
        repeats.setdefault(r["label"], []).append(r["latency_s"])
    return max(statistics.median(v) for v in repeats.values())


def layer_metrics(tracer, passes):
    """Per-pass per-layer numbers from the spans of `passes` traced passes."""
    stats = tracer.stats()
    out = {}
    for name in TRACED_FUNCTIONS + ("trigpoly.eval_poly",):
        calls, total_ns, self_ns = stats.get(name, (0, 0, 0))
        out[f"{name}.calls"] = calls // passes
        out[f"{name}.total_s"] = total_ns / 1e9 / passes
        out[f"{name}.self_s"] = self_ns / 1e9 / passes
        out[f"{name}.mean_us"] = total_ns / 1e3 / calls if calls else 0.0
    evals = out["optimizer.evaluate_candidate.calls"]
    rejections = tracer.counters["optimizer.evaluate_candidate.rejections"] // passes
    out["optimizer.reject_ratio"] = rejections / evals if evals else 0.0
    for name in ("trigpoly.eval_poly.points", "quadrature.adaptive_quad.integrand_points",
                 "quadrature.adaptive_quad.short_of_tol"):
        out[name] = tracer.counters[name] // passes
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny job lists, one set-up sample")
    parser.add_argument("--edge", action="store_true",
                        help="cli-cold: add the verify-trig plateau job, which times out today")
    return parser.parse_args(argv)


def import_package():
    sys.path.insert(0, str(SRC))
    import zetafree

    if Path(zetafree.__file__).resolve().parent != (SRC / "zetafree").resolve():
        raise RuntimeError(f"zetafree imported from {zetafree.__file__}, not {SRC}")


def execute(args):
    """Run the workload; returns (summary, record)."""
    from tracer import Tracer
    from workloads import make_jobs, tail_percentile, warm_up

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "edge": args.edge,
              "load_1min_start": os.getloadavg()[0], "environment": environment()}
    setup_times = [] if args.trace else measure_setup(args.workload, 1 if args.smoke else 3)
    record["setup_samples_s"] = setup_times

    import_package()
    sieve_s = 0.0
    if args.workload == "search":
        warm_up("search")
    elif args.workload == "certify" or args.trace:
        first_s, again_s = warm_up("certify")
        sieve_s = first_s - again_s
    jobs = make_jobs(args.workload, args.seed, smoke=args.smoke, edge=args.edge)
    in_process = args.workload != "cli-cold"

    tracer = Tracer()
    records, walls = [], {False: [], True: []}
    reference, import_times = {}, []
    t_start = time.perf_counter()
    pass_no = 0
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            if in_process:
                wall, results = run_api_pass(jobs, tracer if traced else None)
                records += check_api_results(jobs, results, pass_no, traced)
            else:
                wall, recs = run_cli_pass(jobs, pass_no, traced, tracer, reference, import_times)
                records += recs
            walls[traced].append(wall)
            pass_no += 1
        if time.perf_counter() - t_start >= args.seconds:
            break

    metrics = {}
    if args.trace:
        # outputs of traced and untraced passes must match job by job
        seen = {}
        for rec in records:
            digest = rec["output_sha256"]
            if digest is not None and seen.setdefault(rec["index"], digest) != digest:
                rec["ok"] = False
                rec["error"] = "output differs between traced and untraced passes"
        n_traced = len(walls[True])
        metrics = dict.fromkeys(per_layer_units(), 0.0)
        metrics.update(layer_metrics(tracer, n_traced))
        metrics["zetanum.sieve_s"] = sieve_s
        metrics["bench.trace_overhead"] = statistics.median(walls[True]) / statistics.median(walls[False])
        if not in_process:
            warm_times, recs = cli_in_process(jobs, reference)
            records += recs
            metrics["cli.import_s"] = statistics.median(import_times)
            for sub in CLI_SUBCOMMANDS:
                lat = [r["latency_s"] for r in records if r["kind"] == sub and r["traced"] is False
                       and r["pass"] != "in_process"]
                if lat:
                    metrics[f"cli.{sub}.process_s"] = statistics.median(lat)
                if sub in warm_times:
                    metrics[f"cli.{sub}.in_process_s"] = warm_times[sub]
        tracer.write_spans(record_path(args.workload, args.seed, 1, args.smoke, ".spans.tsv"))
    else:
        latencies = [r["latency_s"] for r in records]
        p = tail_percentile(len(jobs))
        if in_process:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            rss = max(r["rss_mb"] for r in records)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls[False]),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": job_tail(records, p),
            "peak_rss_mb": rss,
        }
        record["tail"] = {"percentile": p, "jobs": len(latencies), "jobs_per_pass": len(jobs)}

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    record.update({
        "load_1min_end": os.getloadavg()[0],
        "sieve_s": sieve_s,
        "pass_walls_s": {"untraced": walls[False], "traced": walls[True]},
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "metrics": metrics, "jobs": records,
    })
    units = per_layer_units() if args.trace else END_TO_END
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return summary, record


def record_path(workload, seed, trace, smoke=False, suffix=".json"):
    """Where a run's record (or, with suffix .spans.tsv, its spans) is written."""
    return OUT_DIR / f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}{suffix}"


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "zetafree" / "__init__.py").is_file():
        print(f"error: no zetafree sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    summary, record = execute(args)
    path = record_path(args.workload, args.seed, args.trace, args.smoke)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=repr)
    failures = [r for r in record["jobs"] if not r["ok"]]
    for rec in failures[:10]:
        print(f"FAILED {rec['label'][:120]}: {rec['error']}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{summary['attempted']} jobs, {summary['failed']} failed "
          f"(error_rate {record['error_rate']:.4f}); record in {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
