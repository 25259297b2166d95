"""Command-line entry point.

Subcommands: optimize, eval-poly, verify-lemma, verify-trig, region,
mollifier-table.  An optional flat JSON config file supplies defaults:
its values are parsed as flags placed before the explicit ones, so they
get the same checks and explicit flags win.  Every float value must be
finite: the library checks --tol and --lam, the parser all the others,
and --max-n must also be a whole number.

Each runner takes the parsed Namespace and returns its output, a result
dict or the finished CSV or text, with its exit code; `run` alone writes
it.  JSON output is canonical (sorted keys, finite floats at 17 significant
digits) so identical runs are byte-identical.  Exit codes: 0 success,
1 validation error, 2 verification failure.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import sys

import numpy as np
from typing import List, Optional, Sequence

from . import __version__
from .asymptotics import (
    DEFAULT_A,
    DEFAULT_B,
    M_from_theta,
    check_objective_input,
    compute_C,
    region_table,
)
from .errors import ZetafreeError
from .mollifier import MollifierShape, g_eval, w_eval
from .optimizer import optimize
from .trigpoly import CosinePolynomial
from .zetanum import DEFAULT_MAX_N, applied_trig_sum, lemma_check


# mollifier-table refuses a --step that asks for more rows than this
MAX_TABLE_ROWS = 10**6


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

def _float_text(x) -> str:
    """x at 17 significant digits, for JSON and CSV; inf and nan raise ValueError."""
    if not math.isfinite(x):
        raise ValueError(f"cannot write {float(x)}: output numbers must be finite")
    return f"{float(x):.17g}"


def _emit_canonical(obj, indent: str, out: List[str]) -> None:
    """Append obj's canonical JSON to out; indent is the current line's."""
    if isinstance(obj, (float, np.floating)):
        out.append(_float_text(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        brackets = "{}" if is_dict else "[]"
        if not obj:
            out.append(brackets)
            return
        inner = indent + "  "
        sep = brackets[0] + "\n" + inner
        for item in sorted(obj) if is_dict else obj:
            out.append(sep)
            if is_dict:
                if not isinstance(item, str):
                    raise TypeError(f"keys must be str, not {type(item).__name__}")
                out.append(json.dumps(item) + ": ")
                item = obj[item]
            _emit_canonical(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + brackets[1])
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps_canonical(obj) -> str:
    """JSON with sorted keys and floats at fixed 17 significant digits.

    The layout is json.dumps(obj, sort_keys=True, indent=2) with every float
    written as format(x, ".17g"); numpy scalars count as the Python types
    they stand for.  Keys must be strings, and a nan or infinite float,
    which JSON cannot hold, raises ValueError.
    """
    out: List[str] = []
    _emit_canonical(obj, "", out)
    return "".join(out)


def _rows_to_csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_float_text(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """A float flag's value; nan and inf are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _whole_number(text: str) -> float:
    """--max-n: a finite float with no fractional part, such as 1e7."""
    value = _finite_float(text)
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")
    return value


def _number_list(flag: str, text: str) -> List[float]:
    """The comma-separated finite floats of a list flag; an empty entry is an error."""
    try:
        return [_finite_float(x) for x in text.split(",")]
    except argparse.ArgumentTypeError:
        raise UsageError(f"bad {flag} list: {text!r}")


def _poly(args: argparse.Namespace) -> CosinePolynomial:
    return CosinePolynomial(tuple(_number_list("--coeffs", args.coeffs)))


def build_parser() -> _Parser:
    parser = _Parser(prog="zetafree")
    parser.add_argument("--config", help="flat JSON file of key/value defaults")
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--output", default=None)

    def command(name, formats):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--format", choices=formats, default="json")
        return p

    p = command("optimize", ("json", "csv", "text"))
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--half-angle-factor", action="store_true")
    p.add_argument("--starts", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-10)

    p = command("eval-poly", ("json", "text"))
    p.add_argument("--coeffs", required=True)
    p.add_argument("--A", type=_finite_float, default=DEFAULT_A)
    p.add_argument("--B", type=_finite_float, default=DEFAULT_B)

    p = command("verify-lemma", ("json",))
    p.add_argument("--sigma", type=_finite_float, required=True)
    p.add_argument("--t", type=_finite_float, default=0.0)
    p.add_argument("--eta", type=_finite_float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-n", type=_whole_number, default=DEFAULT_MAX_N)

    p = command("verify-trig", ("json",))
    p.add_argument("--coeffs", required=True)
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--y", type=_finite_float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-n", type=_whole_number, default=DEFAULT_MAX_N)

    p = command("region", ("json", "csv"))
    p.add_argument("--coeffs", required=True)
    p.add_argument("--A", type=_finite_float, default=DEFAULT_A)
    p.add_argument("--B", type=_finite_float, default=DEFAULT_B)
    p.add_argument("--t", default="3e12", help="comma-separated ordinates")

    p = command("mollifier-table", ("json", "csv"))
    p.add_argument("--b0", type=_finite_float, required=True)
    p.add_argument("--b1", type=_finite_float, required=True)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--step", type=_finite_float, default=0.01)

    return parser


def parse_config(argv: Sequence[str]) -> argparse.Namespace:
    """Parse the flags, with the optional config file's values as defaults.

    The file's values become flags inserted right after the subcommand.
    argparse keeps the last value of a repeated option, so any explicit
    flag, abbreviated or not, beats the file.
    """
    argv = list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("a subcommand is required")
    if args.config:
        i = _command_index(argv) + 1
        args = parser.parse_args(argv[:i] + _config_flags(args) + argv[i:])
    return args


def _command_index(argv: List[str]) -> int:
    """Position of the subcommand; only --config and its value precede it."""
    i = 0
    while argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    return i


def _config_flags(args: argparse.Namespace) -> List[str]:
    """The config file's values as flags of args.command.

    A key must name one of the subcommand's flags exactly.  true sets a
    switch; false and null leave the flag unset.
    """
    try:
        with open(args.config) as fh:
            file_values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"config file: {exc}")
    if not isinstance(file_values, dict):
        raise UsageError("config file must hold a flat JSON object")
    known = {k.replace("_", "-") for k in vars(args)} - {"command", "config"}
    flags = []
    for key, value in file_values.items():
        if key not in known:
            raise UsageError(f"unknown config key: {key!r}")
        if value is True:
            flags.append(f"--{key}")
        elif value is not False and value is not None:
            flags.append(f"--{key}={value}")
    return flags


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def _run_optimize(args: argparse.Namespace):
    res = optimize(degree=args.degree, half_angle_factor=args.half_angle_factor,
                   starts=args.starts, seed=args.seed, tol=args.tol)
    if args.format == "csv":
        return _rows_to_csv(("start", "M"), res.trace), 0
    if args.format == "text":
        return (f"M = {res.M:.6g}\nroots = {list(res.best_form.roots)}\n"
                f"theta = {res.theta:.6g}\n"), 0
    return {"M": res.M, "theta": res.theta, "best_form": res.best_form.to_json(),
            "coeffs": res.best_poly.to_json(), "starts_used": res.starts_used,
            "notes": list(res.notes)}, 0


def _run_eval_poly(args: argparse.Namespace):
    p = _poly(args)
    theta = check_objective_input(p)
    result = {"theta": theta, "M": M_from_theta(p.coeffs, theta), "C": compute_C(p, args.B),
              "A": args.A, "B": args.B, "coeffs": p.to_json()}
    if args.format == "text":
        return "".join(f"{k} = {v}\n" for k, v in result.items()), 0
    return result, 0


def _run_verify_lemma(args: argparse.Namespace):
    report = lemma_check(complex(args.sigma, args.t), args.eta, tol=args.tol,
                         max_n=int(args.max_n))
    return report.to_json(), 0 if report.passed else 2


def _run_verify_trig(args: argparse.Namespace):
    report = applied_trig_sum(_poly(args), args.x, args.y, tol=args.tol,
                              max_n=int(args.max_n))
    return report.to_json(), 0 if report.passed else 2


def _run_region(args: argparse.Namespace):
    rows = region_table(_poly(args), B=args.B, t_values=_number_list("--t", args.t))
    if args.format == "csv":
        return _rows_to_csv(
            ("t", "eta", "lambda", "beta_bound", "flags"),
            [(r.t, r.eta, r.lam, r.beta_bound, ";".join(r.flags)) for r in rows],
        ), 0
    return {"rows": [{"t": r.t, "eta": r.eta, "lambda": r.lam, "beta_bound": r.beta_bound,
                      "flags": list(r.flags)} for r in rows]}, 0


def _run_mollifier_table(args: argparse.Namespace):
    step = args.step
    if step <= 0:
        raise UsageError("step must be positive")
    shape = MollifierShape.from_coeffs(args.b0, args.b1, lam=args.lam)
    support = float(shape.w_support)
    if (support + step / 2) / step >= MAX_TABLE_ROWS:
        raise UsageError(
            f"step {step!r} gives more than {MAX_TABLE_ROWS} rows over the "
            f"support [0, {support:.6g}]"
        )
    grid = []
    u = 0.0
    while u <= support + step / 2:
        grid.append(u)
        u += step
    points = np.array(grid)
    columns = (g_eval(shape.theta, points), w_eval(shape.theta, points), shape.f_eval(points))
    rows = list(zip(grid, *(c.tolist() for c in columns)))
    if args.format == "csv":
        return _rows_to_csv(("u", "g", "w", "f"), rows), 0
    return {"theta": shape.theta, "lam": args.lam, "rows": rows}, 0


_DISPATCH = {
    "optimize": _run_optimize,
    "eval-poly": _run_eval_poly,
    "verify-lemma": _run_verify_lemma,
    "verify-trig": _run_verify_trig,
    "region": _run_region,
    "mollifier-table": _run_mollifier_table,
}


def run(args: argparse.Namespace) -> int:
    """Run args.command and write its output to stdout or --output.

    --output is opened, and truncated, before the subcommand runs.  A result
    dict goes out as the canonical JSON document, with every flag of the
    subcommand, dashed, under config.params.
    """
    try:
        out = open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise UsageError(f"cannot write --output: {exc}")
    with out as fh:
        output, code = _DISPATCH[args.command](args)
        if isinstance(output, dict):
            params = {k.replace("_", "-"): v for k, v in vars(args).items()
                      if k not in ("command", "config", "seed", "format", "output")}
            config = {"command": args.command, "params": params, "seed": args.seed,
                      "format": args.format}
            output = dumps_canonical({"config": config, "version": __version__,
                                      "result": output}) + "\n"
        fh.write(output)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(parse_config(argv))
    except (UsageError, ZetafreeError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
