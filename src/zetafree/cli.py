"""Command-line entry point.

Subcommands: optimize, eval-poly, verify-lemma, verify-trig, region,
mollifier-table.  An optional flat JSON config file supplies defaults:
its values are parsed as flags placed before the explicit ones, so they
get the same checks and explicit flags win.  Every float value must be
finite: the library checks --tol and --lam, the parser all the others.
JSON output is canonical (sorted keys, floats at 17 significant digits)
so identical runs are byte-identical.  Exit codes: 0 success, 1
validation error, 2 verification failure.
"""

import argparse
import csv
import io
import json
import math
import re
import sys

import numpy as np
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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
from .mollifier import MollifierShape, g_eval, solve_theta, w_eval
from .optimizer import optimize
from .trigpoly import CosinePolynomial
from .zetanum import DEFAULT_MAX_N, applied_trig_sum, lemma_check


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's 2
        raise UsageError(message)


@dataclass
class RunConfig:
    command: str
    params: Dict[str, object]
    seed: int = 0
    output_format: str = "json"
    output_path: Optional[str] = None


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

_FLOAT_MARK = "<~float~>"


def _mark_floats(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return f"{_FLOAT_MARK}{float(obj):.17g}{_FLOAT_MARK}"
    if isinstance(obj, dict):
        return {k: _mark_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_mark_floats(v) for v in obj]
    return obj


def dumps_canonical(obj) -> str:
    """JSON with sorted keys and floats at fixed 17 significant digits."""
    text = json.dumps(_mark_floats(obj), sort_keys=True, indent=2)
    return re.sub(f'"{re.escape(_FLOAT_MARK)}([^"]*){re.escape(_FLOAT_MARK)}"', r"\1", text)


def _rows_to_csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
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


def _coeff_list(text: str) -> List[float]:
    """Comma-separated finite floats; an empty entry is an error."""
    try:
        return [_finite_float(x) for x in text.split(",")]
    except argparse.ArgumentTypeError:
        raise UsageError(f"bad coefficient list: {text!r}")


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
    p.add_argument("--max-n", type=_finite_float, default=DEFAULT_MAX_N)

    p = command("verify-trig", ("json",))
    p.add_argument("--coeffs", required=True)
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--y", type=_finite_float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-n", type=_finite_float, default=DEFAULT_MAX_N)

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


def parse_config(argv: Sequence[str]) -> RunConfig:
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
    if args.command == "optimize":
        e = 1 if args.half_angle_factor else 0
        if (args.degree - e) % 2 != 0:
            raise UsageError(
                f"degree {args.degree} conflicts with half-angle-factor={args.half_angle_factor}"
            )

    params = {k.replace("_", "-"): v for k, v in vars(args).items()
              if k not in ("command", "config", "seed", "format", "output")}
    return RunConfig(
        command=args.command,
        params=params,
        seed=args.seed,
        output_format=args.format,
        output_path=args.output,
    )


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

def _document(config: RunConfig, result: dict) -> dict:
    return {
        "config": {
            "command": config.command,
            "params": config.params,
            "seed": config.seed,
            "format": config.output_format,
        },
        "version": __version__,
        "result": result,
    }


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_optimize(config: RunConfig):
    res = optimize(
        degree=int(config.params["degree"]),
        half_angle_factor=bool(config.params["half-angle-factor"]),
        starts=int(config.params["starts"]),
        seed=config.seed,
        tol=float(config.params["tol"]),
    )
    result = {
        "M": res.M,
        "theta": res.theta,
        "best_form": res.best_form.to_json(),
        "coeffs": res.best_poly.to_json(),
        "starts_used": res.starts_used,
        "notes": list(res.notes),
    }
    if config.output_format == "csv":
        text = _rows_to_csv(("iteration", "M"), [(i, m) for i, m in res.trace])
    elif config.output_format == "text":
        text = (f"M = {res.M:.6g}\nroots = {list(res.best_form.roots)}\n"
                f"theta = {res.theta:.6g}\n")
    else:
        text = dumps_canonical(_document(config, result)) + "\n"
    _emit(config, text)
    return 0


def _run_eval_poly(config: RunConfig):
    p = CosinePolynomial(tuple(_coeff_list(str(config.params["coeffs"]))))
    B = float(config.params["B"])
    theta = solve_theta(p.coeffs[0], p.coeffs[1])
    check_objective_input(p)
    result = {
        "theta": theta,
        "M": M_from_theta(p.coeffs, theta),
        "C": compute_C(p, B),
        "A": float(config.params["A"]),
        "B": B,
        "coeffs": p.to_json(),
    }
    if config.output_format == "text":
        text = "".join(f"{k} = {v}\n" for k, v in result.items())
    else:
        text = dumps_canonical(_document(config, result)) + "\n"
    _emit(config, text)
    return 0


def _run_verify_lemma(config: RunConfig):
    report = lemma_check(
        complex(float(config.params["sigma"]), float(config.params["t"])),
        float(config.params["eta"]),
        tol=float(config.params["tol"]),
        max_n=int(float(config.params["max-n"])),
    )
    _emit(config, dumps_canonical(_document(config, report.to_json())) + "\n")
    return 0 if report.passed else 2


def _run_verify_trig(config: RunConfig):
    p = CosinePolynomial(tuple(_coeff_list(str(config.params["coeffs"]))))
    report = applied_trig_sum(
        p,
        float(config.params["x"]),
        float(config.params["y"]),
        tol=float(config.params["tol"]),
        max_n=int(float(config.params["max-n"])),
    )
    _emit(config, dumps_canonical(_document(config, report.to_json())) + "\n")
    return 0 if report.passed else 2


def _run_region(config: RunConfig):
    p = CosinePolynomial(tuple(_coeff_list(str(config.params["coeffs"]))))
    t_values = _coeff_list(str(config.params["t"]))
    rows = region_table(
        p,
        A=float(config.params["A"]),
        B=float(config.params["B"]),
        t_values=t_values,
    )
    if config.output_format == "csv":
        text = _rows_to_csv(
            ("t", "eta", "lambda", "beta_bound", "flags"),
            [(r.t, r.eta, r.lam, r.beta_bound, ";".join(r.flags)) for r in rows],
        )
    else:
        result = {"rows": [
            {"t": r.t, "eta": r.eta, "lambda": r.lam,
             "beta_bound": r.beta_bound, "flags": list(r.flags)}
            for r in rows
        ]}
        text = dumps_canonical(_document(config, result)) + "\n"
    _emit(config, text)
    return 0


def _run_mollifier_table(config: RunConfig):
    b0 = float(config.params["b0"])
    b1 = float(config.params["b1"])
    lam = float(config.params["lam"])
    step = float(config.params["step"])
    if step <= 0:
        raise UsageError("step must be positive")
    shape = MollifierShape.from_coeffs(b0, b1, lam=lam)
    rows = []
    u = 0.0
    while u <= shape.w_support + step / 2:
        rows.append((u, g_eval(shape.theta, u), w_eval(shape.theta, u), shape.f_eval(u)))
        u += step
    if config.output_format == "json":
        result = {"theta": shape.theta, "lam": lam,
                  "rows": [list(r) for r in rows]}
        text = dumps_canonical(_document(config, result)) + "\n"
    else:
        text = _rows_to_csv(("u", "g", "w", "f"), rows)
    _emit(config, text)
    return 0


_DISPATCH = {
    "optimize": _run_optimize,
    "eval-poly": _run_eval_poly,
    "verify-lemma": _run_verify_lemma,
    "verify-trig": _run_verify_trig,
    "region": _run_region,
    "mollifier-table": _run_mollifier_table,
}


def run(config: RunConfig) -> int:
    return _DISPATCH[config.command](config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
        return run(config)
    except (UsageError, ZetafreeError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
