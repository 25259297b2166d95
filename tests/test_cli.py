import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zetafree.cli as cli
from zetafree import zetanum
from zetafree.mollifier import MollifierShape, g_eval, w_eval
from zetafree.cli import dumps_canonical, main, parse_config
from zetafree.zetanum import VerificationReport


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def test_dumps_canonical_sorted_and_float_format():
    text = dumps_canonical({"b": 0.1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert "0.10000000000000001" in text  # 17 significant digits
    assert json.loads(text) == {"a": 2, "b": pytest.approx(0.1)}


def test_dumps_canonical_nested_and_bool():
    text = dumps_canonical({"x": [True, 1.5, {"y": None}]})
    assert json.loads(text) == {"x": [True, 1.5, {"y": None}]}


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


def _dumps_by_marked_floats(obj):
    """Canonical JSON as dumps_canonical once made it: each float marked as a
    string, json.dumps with sorted keys and indent 2, then the marks rewritten."""
    text = json.dumps(_mark_floats(obj), sort_keys=True, indent=2)
    return re.sub(f'"{re.escape(_FLOAT_MARK)}([^"]*){re.escape(_FLOAT_MARK)}"', r"\1", text)


_TEXT = st.text().filter(lambda s: _FLOAT_MARK not in s)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    _TEXT,
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_dumps_canonical_equals_marked_float_pipeline(obj):
    assert dumps_canonical(obj) == _dumps_by_marked_floats(obj)


def test_dumps_canonical_rejects_what_json_cannot_hold():
    with pytest.raises(TypeError, match="keys must be str"):
        dumps_canonical({1: 2.0})
    with pytest.raises(TypeError, match="not JSON serializable"):
        dumps_canonical({"a": np.zeros(2)})


@pytest.mark.parametrize("kind", (float, np.float64, np.float32), ids=lambda k: k.__name__)
@pytest.mark.parametrize("text", ("inf", "-inf", "nan"))
def test_dumps_canonical_refuses_non_finite_floats(kind, text):
    with pytest.raises(ValueError, match=": output numbers must be finite$"):
        dumps_canonical({"rows": [[0.5, kind(text)]]})


def test_dumps_canonical_equals_marked_float_pipeline_on_a_table():
    document = {"config": {"params": {"step": 0.05}}, "rows": [[0.1 * i, i, None, []] for i in range(50)],
                "empty": {}, "flags": (True, np.bool_(False)), "name": "\u00e9\"\n"}
    assert dumps_canonical(document) == _dumps_by_marked_floats(document)


def test_cli_import_does_not_load_scipy():
    code = "import sys, zetafree.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
    # optimize itself runs without scipy: -X importtime lists every module loaded
    argv = ["optimize", "--degree", "3", "--half-angle-factor", "--starts", "8"]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "zetafree.cli", *argv],
                          capture_output=True, text=True, check=True)
    loaded = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "zetafree.optimizer" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    assert json.loads(proc.stdout)["result"]["M"] > 0


def test_cli_runs_without_mpmath():
    code = "import sys, zetafree.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
    argv = ["optimize", "--degree", "3", "--half-angle-factor", "--starts", "8"]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "zetafree.cli", *argv],
                          capture_output=True, text=True, check=True)
    loaded = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "zetafree.trigpoly" in loaded
    assert [m for m in loaded if m.split(".")[0] == "mpmath"] == []
    assert json.loads(proc.stdout)["result"]["M"] > 0


def _numpy_dispatch_list():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return list(__cpu_dispatch__)


@pytest.mark.parametrize("argv", [
    ["--degree", "3", "--half-angle-factor", "--starts", "8"],
    ["--degree", "5", "--half-angle-factor", "--starts", "64"],
    ["--degree", "8", "--starts", "16"],
])
def test_optimize_stdout_does_not_depend_on_numpy_cpu_dispatch(argv):
    _assert_stdout_does_not_depend_on_numpy_cpu_dispatch(["optimize", *argv])


def test_mollifier_table_stdout_does_not_depend_on_numpy_cpu_dispatch():
    _assert_stdout_does_not_depend_on_numpy_cpu_dispatch(
        ["mollifier-table", "--b0", "3", "--b1", "4", "--lam", "0.7", "--step", "0.01",
         "--format", "csv"])


def _assert_stdout_does_not_depend_on_numpy_cpu_dispatch(argv):
    dispatch = _numpy_dispatch_list()
    if not dispatch:
        pytest.skip("this numpy build dispatches no CPU features")
    baseline_env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(dispatch))
    outputs = [
        subprocess.run([sys.executable, "-m", "zetafree.cli", *argv],
                       capture_output=True, check=True, env=env).stdout
        for env in (None, baseline_env)
    ]
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert main(["eval-poly", "--coeffs", "3,4,1", "--bogus", "7"]) == 1
    assert "--bogus" in capsys.readouterr().err


def test_missing_required_flag_exits_one(capsys):
    assert main(["verify-lemma", "--eta", "0.25"]) == 1
    assert "--sigma" in capsys.readouterr().err


def test_bad_coeff_list_exits_one(capsys):
    assert main(["eval-poly", "--coeffs", "3,four,1"]) == 1
    assert "four" in capsys.readouterr().err


@pytest.mark.parametrize("coeffs", ("1,3.5", "1,-2,0.5", "1,1.9", "0,1"))
def test_every_coeffs_command_refuses_a_dip_with_one_error_line(coeffs, capsys):
    errors = set()
    for argv in (["eval-poly"], ["region"], ["verify-trig", "--x", "2", "--y", "1", "--max-n", "1e4"]):
        assert main([*argv, "--coeffs", coeffs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.add(captured.err)
    [err] = errors
    assert err.startswith("error: polynomial dips to ") and err.count("\n") == 1


def test_eval_poly_and_region_refuse_a_nonpositive_tail_sum_alike(capsys):
    # nonnegative, b1/b0 inside the shape window, sum_{j>=1} b_j < 0
    coeffs = "7.32,7.36,0.08,-7.2,-4.8,-2.4"
    errors = set()
    for command in ("eval-poly", "region"):
        assert main([command, "--coeffs", coeffs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.add(captured.err)
    assert errors == {"error: sum of b_1..b_d must be positive\n"}


@pytest.mark.parametrize("B", ["1e308", "1e-310"])
def test_coeffs_commands_take_a_huge_or_tiny_finite_B(B, capsys):
    assert main(["eval-poly", "--coeffs", "3,4,1", "--B", B]) == 0
    C = json.loads(capsys.readouterr().out)["result"]["C"]
    assert 0.0 < C < math.inf
    assert main(["region", "--coeffs", "3,4,1", "--B", B]) == 0
    (row,) = json.loads(capsys.readouterr().out)["result"]["rows"]
    assert row["lambda"] > 0.0 and row["eta"] > 0.0


_NONFINITE_FLAGS = [
    ["eval-poly", "--coeffs", "3,4,1", "--B", "nan"],
    ["eval-poly", "--coeffs", "3,4,1", "--A", "inf"],
    ["region", "--coeffs", "3,4,1", "--B=-inf"],
    ["verify-lemma", "--sigma", "nan", "--eta", "0.5"],
    ["verify-lemma", "--sigma", "1.5", "--t", "inf", "--eta", "0.5"],
    ["verify-lemma", "--sigma", "1.5", "--eta", "nan"],
    ["verify-lemma", "--sigma", "1.5", "--eta", "0.5", "--max-n", "inf"],
    ["verify-trig", "--coeffs", "3,4,1", "--x", "nan", "--y", "2"],
    ["verify-trig", "--coeffs", "3,4,1", "--x", "1.5", "--y", "nan"],
    ["verify-trig", "--coeffs", "3,4,1", "--x", "1.5", "--y", "2", "--max-n", "nan"],
    ["mollifier-table", "--b0", "nan", "--b1", "4"],
    ["mollifier-table", "--b0", "3", "--b1", "inf"],
    ["mollifier-table", "--b0", "3", "--b1", "4", "--step", "inf"],
    ["mollifier-table", "--b0", "3", "--b1", "4", "--step", "nan"],
]


@pytest.mark.parametrize("argv", _NONFINITE_FLAGS, ids=lambda a: " ".join(a))
def test_nonfinite_float_flag_exits_one(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "not a finite number" in captured.err


@pytest.mark.parametrize("max_n", ["0", "0.5", "-5"])
@pytest.mark.parametrize("argv", [
    ["verify-lemma", "--sigma", "1.5", "--eta", "0.5", "--tol", "1e-3"],
    ["verify-trig", "--coeffs", "3,4,1", "--x", "1.5", "--y", "2", "--tol", "1e-3"],
], ids=lambda a: a[0])
def test_max_n_below_one_exits_one(capsys, argv, max_n):
    # the parser refuses a fractional value, the library one below 1
    assert main([*argv, f"--max-n={max_n}"]) == 1
    captured = capsys.readouterr()
    message = ("error: argument --max-n: not a whole number: '0.5'" if max_n == "0.5"
               else "error: max_n must be >= 1, got")
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("max_n", ["999.9", "1.9"])
@pytest.mark.parametrize("argv", [
    ["verify-lemma", "--sigma", "1.5", "--eta", "0.5", "--tol", "1e-3"],
    ["verify-trig", "--coeffs", "3,4,1", "--x", "1.5", "--y", "2", "--tol", "1e-3"],
], ids=lambda a: a[0])
def test_fractional_max_n_exits_one(tmp_path, capsys, argv, max_n):
    message = f"error: argument --max-n: not a whole number: {max_n!r}\n"
    assert main([*argv, "--max-n", max_n]) == 1
    assert capsys.readouterr() == ("", message)
    # a config file's value gets the same check
    path = _write_config(tmp_path, {"max-n": float(max_n)})
    assert main(["--config", path, *argv]) == 1
    assert capsys.readouterr() == ("", message)


_MALFORMED_LISTS = [
    ("--coeffs", ["eval-poly", "--coeffs", "3,,4,1"]),
    ("--coeffs", ["eval-poly", "--coeffs", "3,4,1,"]),
    ("--coeffs", ["eval-poly", "--coeffs", "3,nan,1"]),
    ("--coeffs", ["verify-trig", "--coeffs", "3,4,inf", "--x", "1.5", "--y", "2"]),
    ("--coeffs", ["region", "--coeffs", "3,x,1", "--t", "1e12"]),
    ("--t", ["region", "--coeffs", "3,4,1", "--t", ","]),
    ("--t", ["region", "--coeffs", "3,4,1", "--t", "nan"]),
    ("--t", ["region", "--coeffs", "3,4,1", "--t", "1e6,inf"]),
    ("--t", ["region", "--coeffs", "3,4,1", "--t", "1e12,abc"]),
]


@pytest.mark.parametrize("flag,argv", [pytest.param(f, a, id=" ".join(a))
                                       for f, a in _MALFORMED_LISTS])
def test_malformed_list_exits_one(capsys, flag, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad {flag} list: {argv[argv.index(flag) + 1]!r}\n"


def test_parity_conflict_exits_one(capsys):
    # optimize's own refusal, as the library words it
    assert main(["optimize", "--degree", "4", "--half-angle-factor"]) == 1
    assert capsys.readouterr() == (
        "", "error: degree 4 is inconsistent with half_angle_factor=True\n")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_bad_optimize_tol_exits_one(capsys, tol):
    assert main(["optimize", "--degree", "3", "--half-angle-factor", "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "tol must be finite and > 0" in captured.err


def test_negative_optimize_seed_exits_one(capsys):
    assert main(["optimize", "--degree", "3", "--half-angle-factor", "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: seed must be a nonnegative integer, got -1\n")


@pytest.mark.parametrize("argv", [
    ["verify-lemma", "--sigma", "1.5", "--eta", "0.5", "--tol", "nan"],
    ["verify-lemma", "--sigma", "1.5", "--eta", "0.5", "--tol", "-1"],
    ["verify-trig", "--coeffs", "3,4,1", "--x", "1.5", "--y", "2.0", "--tol", "nan"],
    ["verify-trig", "--coeffs", "3,4,1", "--x", "1.5", "--y", "2.0", "--tol", "0"],
])
def test_bad_verify_tol_exits_one(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: tol must be finite and > 0" in captured.err


def test_domain_error_exits_one(capsys):
    # b1/b0 outside the admissible ratio window
    assert main(["eval-poly", "--coeffs", "4,3,1"]) == 1
    assert "error:" in capsys.readouterr().err


def _tiny_eta_argv(eta):
    return ["verify-lemma", "--sigma", "1.5", "--eta", eta, "--tol", "1e-3", "--max-n", "1e3"]


def test_eta_below_the_float_range_exits_one_without_output(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(_tiny_eta_argv("1e-310")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: eta = 1e-310 is too small: the k-sum at Re(z) = 1.5 "
                            "leaves the float range\n")


def test_tiny_eta_reports_no_negative_error_bound(monkeypatch, capsys):
    # eta*tol = 1e-203 is far below the rounding of the integral, so
    # lemma_rhs refuses it before any quadrature, and no bound is printed
    monkeypatch.setattr(zetanum, "strip_gauss", None)
    start = time.perf_counter()
    assert main(_tiny_eta_argv("1e-200")) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: eta = 1e-200 is too small at tol = 0.001: the target "
                            "eta*tol is within rounding of the integral's bound 2*log zeta(1.5)\n")


@pytest.mark.parametrize("command", ["eval-poly", "region", "verify-trig"])
def test_a_dipping_polynomial_gets_one_error_from_every_command(command, capsys):
    argv = [command, "--coeffs", "1,1.9"]
    if command == "verify-trig":
        argv += ["--x", "2", "--y", "1", "--tol", "1e-3", "--max-n", "1e4"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: polynomial dips to -0.9 at theta=3.14159\n"


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def _write_config(tmp_path, values):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    return str(path)


def test_config_supplies_defaults(tmp_path):
    path = _write_config(tmp_path, {"x": 2.0, "y": 3.0, "tol": 1e-4})
    cfg = parse_config(["--config", path, "verify-trig", "--coeffs", "3,4,1",
                        "--x", "9", "--y", "9"])
    # flags were explicit, so they win; tol comes from the file
    assert cfg.x == 9.0
    assert cfg.tol == 1e-4


def test_config_flag_override(tmp_path):
    path = _write_config(tmp_path, {"seed": 5, "starts": 3})
    cfg = parse_config(["--config", path, "optimize", "--degree", "5",
                        "--half-angle-factor", "--seed", "9"])
    assert cfg.seed == 9  # explicit flag beats the file
    assert cfg.starts == 3


def test_config_loses_to_abbreviated_flag(tmp_path):
    path = _write_config(tmp_path, {"starts": 3})
    cfg = parse_config(["--config", path, "optimize", "--degree", "5",
                        "--half-angle-factor", "--start", "9"])
    assert cfg.starts == 9


@pytest.mark.parametrize("values,argv", [
    ({"B": float("nan")}, ["eval-poly", "--coeffs", "3,4,1"]),
    ({"step": "inf"}, ["mollifier-table", "--b0", "3", "--b1", "4"]),
    ({"t": float("-inf")}, ["verify-lemma", "--sigma", "1.5", "--eta", "0.5"]),
])
def test_config_nonfinite_value_exits_one(tmp_path, capsys, values, argv):
    path = _write_config(tmp_path, values)
    assert main(["--config", path, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "not a finite number" in captured.err


def test_config_values_are_checked_like_flags(tmp_path, capsys):
    path = _write_config(tmp_path, {"format": "xml"})
    assert main(["--config", path, "eval-poly", "--coeffs", "3,4,1"]) == 1
    assert "xml" in capsys.readouterr().err
    path = _write_config(tmp_path, {"tol": "abc"})
    assert main(["--config", path, "verify-trig", "--coeffs", "3,4,1",
                 "--x", "2", "--y", "1"]) == 1
    assert "abc" in capsys.readouterr().err


def test_config_switches(tmp_path):
    # true sets a switch, and the degree check sees it; false and null leave flags unset
    path = _write_config(tmp_path, {"half-angle-factor": True, "tol": None, "seed": False})
    cfg = parse_config(["--config=" + path, "optimize", "--degree", "5"])
    assert cfg.half_angle_factor is True
    assert cfg.tol == 1e-10 and cfg.seed == 0


def test_config_unknown_key_rejected(tmp_path, capsys):
    path = _write_config(tmp_path, {"granularity": 10})
    assert main(["--config", path, "eval-poly", "--coeffs", "3,4,1"]) == 1
    assert "granularity" in capsys.readouterr().err


def test_config_must_be_object(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    assert main(["--config", str(path), "eval-poly", "--coeffs", "3,4,1"]) == 1
    assert "flat JSON object" in capsys.readouterr().err


def test_config_missing_file(capsys):
    assert main(["--config", "/nonexistent/config.json",
                 "eval-poly", "--coeffs", "3,4,1"]) == 1
    assert "config file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_eval_poly_json(capsys):
    assert main(["eval-poly", "--coeffs", "3,4,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["command"] == "eval-poly"
    from zetafree.asymptotics import compute_M
    from zetafree.trigpoly import CosinePolynomial

    assert doc["result"]["M"] == pytest.approx(
        compute_M(CosinePolynomial((3.0, 4.0, 1.0))), rel=1e-12
    )
    assert doc["result"]["coeffs"] == [3.0, 4.0, 1.0]


def test_eval_poly_solves_and_checks_once(monkeypatch, capsys):
    argv = ["eval-poly", "--coeffs", "3,4,1"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    calls = {"solve_theta": 0, "verify_nonneg": 0}
    for modname in ("zetafree.cli", "zetafree.asymptotics", "zetafree.mollifier",
                    "zetafree.trigpoly", "zetafree"):
        module = sys.modules[modname]
        for name in calls:
            if hasattr(module, name):
                original = getattr(module, name)

                def counted(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    assert main(argv) == 0
    assert calls == {"solve_theta": 1, "verify_nonneg": 1}
    assert capsys.readouterr().out == expected


def test_eval_poly_deterministic_bytes(capsys):
    args = ["eval-poly", "--coeffs", "3,4,1"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_region_csv(capsys):
    assert main(["region", "--coeffs", "3,4,1", "--t", "1e12,1e15",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,eta,lambda,beta_bound,flags"
    assert len(lines) == 3


def test_region_json_rows(capsys):
    assert main(["region", "--coeffs", "3,4,1", "--t", "3e12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    row = doc["result"]["rows"][0]
    assert row["beta_bound"] == pytest.approx(1.0 - row["lambda"], rel=1e-14)


def test_mollifier_table_csv(capsys):
    assert main(["mollifier-table", "--b0", "3", "--b1", "4",
                 "--step", "0.5", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "u,g,w,f"
    assert float(lines[1].split(",")[0]) == 0.0


@pytest.mark.parametrize("lam", ("0", "-1", "nan"))
def test_mollifier_table_bad_lam(lam, capsys):
    assert main(["mollifier-table", "--b0", "3", "--b1", "4", "--lam", lam]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lam must be finite and > 0" in captured.err


@pytest.mark.parametrize("fmt", ("json", "csv"))
def test_mollifier_table_refuses_an_overflowing_f_column(fmt, capsys):
    argv = ["mollifier-table", "--b0", "3", "--b1", "4", "--lam", "1e307", "--step", "0.5",
            "--format", fmt]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write inf: output numbers must be finite\n"


def test_mollifier_table_makes_no_quadrature_call(monkeypatch, capsys):
    argv = ["mollifier-table", "--b0", "3", "--b1", "4", "--step", "0.05"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    calls = {"adaptive_quad": 0, "strip_gauss": 0}
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
    assert main(argv) == 0
    assert calls == {"adaptive_quad": 0, "strip_gauss": 0}
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("lam", ("0.5", "0.7", "1.0", "2.5"))
def test_mollifier_table_matches_row_by_row_evaluation(lam, capsys):
    step = 1e-4
    assert main(["mollifier-table", "--b0", "3", "--b1", "4", "--lam", lam,
                 "--step", repr(step)]) == 0
    got = np.array(json.loads(capsys.readouterr().out)["result"]["rows"])
    shape = MollifierShape.from_coeffs(3.0, 4.0, lam=float(lam))
    rows = []
    u = 0.0
    while u <= shape.w_support + step / 2:
        lu = shape.lam * u
        f = shape.lam * math.exp(lu) * w_eval(shape.theta, lu) if lu < shape.w_support else 0.0
        rows.append((u, g_eval(shape.theta, u), w_eval(shape.theta, u), f))
        u += step
    want = np.array(rows)
    assert got.shape == want.shape
    assert np.array_equal(got[:, 0], want[:, 0])
    assert (np.abs(got - want) <= 4e-16 * np.abs(want)).all()


def test_mollifier_table_bad_step(capsys):
    assert main(["mollifier-table", "--b0", "3", "--b1", "4",
                 "--step", "-1"]) == 1


@pytest.mark.parametrize("step", ["1e-300", "5e-324"])
def test_mollifier_table_refuses_a_step_with_too_many_rows(step, capsys):
    start = time.perf_counter()
    assert main(["mollifier-table", "--b0", "3", "--b1", "4", "--step", step]) == 1
    assert time.perf_counter() - start <= 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"step {float(step)!r} gives more than {cli.MAX_TABLE_ROWS} rows" in captured.err


def test_verify_lemma_pass(capsys):
    assert main(["verify-lemma", "--sigma", "1.5", "--eta", "0.5",
                 "--tol", "1e-3", "--max-n", "1e6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["pass"] is True
    assert doc["result"]["abs_diff"] <= (doc["result"]["lhs_error_bound"]
                                         + doc["result"]["rhs_error_bound"] + 1e-3)
    # the k-sum's truncation N, far below the cap at this tol
    assert 1 <= doc["result"]["params"]["N"] < 10**4


def test_verify_lemma_small_eta_reports_its_bound(capsys):
    assert main(["verify-lemma", "--sigma", "1.5", "--eta", "1e-6",
                 "--tol", "1e-3", "--max-n", "1e5"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["pass"] is True
    assert math.isfinite(result["lhs"]) and math.isfinite(result["lhs_error_bound"])
    assert result["params"]["N"] == 10**5


def test_verify_trig_pass(capsys):
    assert main(["verify-trig", "--coeffs", "3,4,1", "--x", "1.5", "--y", "2.0",
                 "--tol", "1e-3", "--max-n", "1e6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["pass"] is True


def test_verify_trig_reports_the_n_its_tolerance_needs(capsys):
    assert main(["verify-trig", "--coeffs", "3,4,1", "--x", "1.75", "--y", "14.13",
                 "--tol", "1e-3", "--max-n", "1e7"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["pass"] is True
    # the smallest N whose bound, summed over b_j, meets tol: the explicit
    # cut's (the absolute bound alone needed 32,561 for each b_j's tol)
    shifts = [complex(1.75, j * 14.13) for j in range(3)]
    N, _, bound = zetanum._cut(shifts, 1e-3, 10**7, (3.0, 4.0, 1.0))
    assert result["params"]["N"] == N == 7352
    assert result["lhs_error_bound"] == bound <= 1e-3


def test_verify_failure_exits_two(monkeypatch, capsys):
    failing = VerificationReport(
        lhs=1.0, rhs=2.0, abs_diff=1.0, lhs_error_bound=0.0,
        rhs_error_bound=0.0, passed=False, kind="equality", params={},
    )
    monkeypatch.setattr(cli, "lemma_check", lambda *a, **k: failing)
    assert main(["verify-lemma", "--sigma", "1.5", "--eta", "0.5"]) == 2
    assert json.loads(capsys.readouterr().out)["result"]["pass"] is False


def test_optimize_text_format(capsys):
    assert main(["optimize", "--degree", "2", "--starts", "4",
                 "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("M = ")
    assert "roots = " in out


_FORMAT_ARGV = {
    "optimize": ["optimize", "--degree", "2", "--starts", "2"],
    "eval-poly": ["eval-poly", "--coeffs", "3,4,1"],
    "region": ["region", "--coeffs", "3,4,1"],
    "mollifier-table": ["mollifier-table", "--b0", "3", "--b1", "4", "--step", "0.5"],
    "verify-lemma": ["verify-lemma", "--sigma", "1.5", "--eta", "0.5",
                     "--tol", "1e-3", "--max-n", "1e5"],
    "verify-trig": ["verify-trig", "--coeffs", "3,4,1", "--x", "2", "--y", "1",
                    "--tol", "1e-3", "--max-n", "1e5"],
}
_FORMATS = {
    "optimize": ("json", "csv", "text"),
    "eval-poly": ("json", "text"),
    "region": ("json", "csv"),
    "mollifier-table": ("json", "csv"),
    "verify-lemma": ("json",),
    "verify-trig": ("json",),
}


@pytest.mark.parametrize("command,fmt", [
    (c, f) for c, fmts in _FORMATS.items() for f in ("json", "csv", "text") if f not in fmts
])
def test_unsupported_format_exits_one(command, fmt, tmp_path, capsys):
    assert main(_FORMAT_ARGV[command] + ["--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--format" in captured.err
    path = _write_config(tmp_path, {"format": fmt})
    assert main(["--config", path] + _FORMAT_ARGV[command]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--format" in captured.err


@pytest.mark.parametrize("command,fmt", [(c, f) for c, fmts in _FORMATS.items() for f in fmts])
def test_supported_format_is_emitted(command, fmt, capsys):
    assert main(_FORMAT_ARGV[command] + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)["config"]["format"] == "json"
    elif fmt == "csv":
        assert "," in out.splitlines()[0] and not out.startswith("{")
        if command == "optimize":
            # each row is a searched start's Halton index and the best M so far
            assert out.splitlines()[0] == "start,M"
    else:
        assert " = " in out.splitlines()[0]


@pytest.mark.parametrize("command,fmt", [(c, f) for c, fmts in _FORMATS.items() for f in fmts])
def test_output_file(command, fmt, tmp_path, capsys):
    argv = _FORMAT_ARGV[command] + ["--format", fmt]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    out = tmp_path / "res.out"
    assert main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == expected


@pytest.mark.parametrize("make_path", [lambda tmp: tmp / "missing" / "x.json", lambda tmp: tmp],
                         ids=["missing-directory", "a-directory"])
def test_unwritable_output_fails_before_the_runner(make_path, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(cli._DISPATCH, "eval-poly", lambda args: calls.append(args))
    path = str(make_path(tmp_path))
    assert main(_FORMAT_ARGV["eval-poly"] + ["--output", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and calls == []
    (line,) = captured.err.splitlines()
    assert line.startswith("error: cannot write --output: ") and repr(path) in line


def test_a_failed_run_leaves_an_empty_output_file(tmp_path, capsys):
    out = tmp_path / "res.json"
    out.write_text("old contents\n")
    # b1/b0 outside the shape equation's window
    assert main(["eval-poly", "--coeffs", "4,3,1", "--output", str(out)]) == 1
    assert capsys.readouterr().out == ""
    assert out.read_text() == ""


# config.params of each _FORMAT_ARGV command: every flag, as argparse typed it
_CONFIG_PARAMS = {
    "optimize": {"degree": 2, "half-angle-factor": False, "starts": 2, "tol": 1e-10},
    "eval-poly": {"coeffs": "3,4,1", "A": 76.2, "B": 4.45},
    "region": {"coeffs": "3,4,1", "A": 76.2, "B": 4.45, "t": "3e12"},
    "mollifier-table": {"b0": 3.0, "b1": 4.0, "lam": 1.0, "step": 0.5},
    "verify-lemma": {"sigma": 1.5, "t": 0.0, "eta": 0.5, "tol": 1e-3, "max-n": 100000.0},
    "verify-trig": {"coeffs": "3,4,1", "x": 2.0, "y": 1.0, "tol": 1e-3, "max-n": 100000.0},
}


@pytest.mark.parametrize("command", _FORMAT_ARGV)
def test_config_block_holds_every_flag_as_parsed(command, monkeypatch, capsys):
    documents = []

    def recording(obj):
        documents.append(obj)
        return dumps_canonical(obj)

    monkeypatch.setattr(cli, "dumps_canonical", recording)
    assert main(_FORMAT_ARGV[command]) == 0
    want = {"command": command, "params": _CONFIG_PARAMS[command], "seed": 0, "format": "json"}
    (document,) = documents
    assert document["config"] == want
    assert ({k: type(v) for k, v in document["config"]["params"].items()}
            == {k: type(v) for k, v in want["params"].items()})
    assert json.loads(capsys.readouterr().out)["config"] == want
