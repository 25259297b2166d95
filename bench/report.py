"""Summaries over runs of bench/run.py.

    python3 bench/report.py summary [--seed N] [--seconds S] [--trace]
        One run of every workload: each end-to-end metric with its unit,
        error_rate, M and the verifier verdicts.  cli-cold runs with the
        `edge` job; --trace adds a traced run of each workload with its
        per-layer metrics and tracing overhead.

    python3 bench/report.py steady --workload W [--runs R] [--first-seed N] [--seconds S]
        R runs of one workload, seeds N..N+R-1: median and quartiles of each
        end-to-end metric, and its spread (q3 - q1) / median against the
        bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter

from run import BENCH_DIR, ROOT, record_path


def run_once(workload, seed, seconds, trace, edge=False):
    """Run bench/run.py; returns (summary line, run record)."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    if edge:
        argv.append("--edge")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(record_path(workload, seed, int(trace))) as fh:
        record = json.load(fh)
    return summary, record


def describe_outcomes(record):
    """One line per job kind: verdicts and the M values reached."""
    lines = []
    kinds = dict.fromkeys(r["kind"] for r in record["jobs"])
    for kind in kinds:
        recs = [r for r in record["jobs"] if r["kind"] == kind]
        ok = sum(r["ok"] for r in recs)
        Ms = sorted({r["facts"]["M"] for r in recs if "M" in r.get("facts", {})})
        verdicts = Counter(str(r["facts"]["passed"]) for r in recs if "passed" in r.get("facts", {}))
        extra = ""
        if Ms:
            extra += " M=" + ",".join(f"{m:.10f}" for m in Ms)
        if verdicts:
            extra += " passed=" + ",".join(f"{k}:{v}" for k, v in sorted(verdicts.items()))
        errors = sorted({r["error"] for r in recs if r["error"]})
        if errors:
            extra += " errors=" + "; ".join(errors)
        lines.append(f"    {kind:16s} {ok}/{len(recs)} ok{extra}")
    return lines


def summary(args):
    for workload in ("search", "certify", "cli-cold"):
        edge = workload == "cli-cold"
        result, record = run_once(workload, args.seed, args.seconds, False, edge)
        print(f"{workload} (seed {args.seed}{', with edge job' if edge else ''})")
        for name, m in result["metrics"].items():
            print(f"  {name:14s} {m['value']:14.6g} {m['unit']}")
        tail = record["tail"]
        print(f"  {'error_rate':14s} {record['error_rate']:14.6g} failed/attempted "
              f"({record['failed']}/{record['attempted']})")
        what = (f"p{tail['percentile']}" if tail["percentile"] < 100
                else "the slowest job's median over its repeats")
        print(f"  job_tail_s is {what}, of {tail['jobs']} jobs")
        print("\n".join(describe_outcomes(record)))
        if args.trace:
            traced, trecord = run_once(workload, args.seed, args.seconds, True)
            walls = trecord["pass_walls_s"]
            overhead = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
            print(f"  traced run: {traced['failed']} of {traced['attempted']} jobs failed; "
                  f"tracing overhead {overhead:.3f} s per pass "
                  f"(traced minus untraced wall_s)")
            for name, m in traced["metrics"].items():
                if m["value"]:
                    print(f"    {name:48s} {m['value']:14.6g} {m['unit']}")


def steady(args):
    with open(ROOT / "BENCHMARK.json") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values = {}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, _ = run_once(args.workload, seed, args.seconds, False)
        failed += result["failed"]
        cells = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            cells.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: failed={result['failed']} " + " ".join(cells), flush=True)
    print(f"{args.workload}: {args.runs} runs, {failed} failed jobs")
    print(f"  {'metric':12s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = ""
        if spread > bounds[name]:
            flag = "  EXCEEDS BOUND"
        elif spread > bounds[name] / 3:
            flag = "  above a third of the bound"
        print(f"  {name:12s} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:8.4f} {bounds[name]:6.2f}{flag}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("summary")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("steady")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    summary(args) if args.command == "summary" else steady(args)


if __name__ == "__main__":
    main()
