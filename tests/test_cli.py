import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import emzv
import emzv.numerics
import emzv.reduction
from emzv import cli
from emzv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_terminal(capsys):
    code, out, _ = run(capsys, "reduce", "--index", "0,2")
    assert code == 0
    assert out.strip() == "1 * I(0,2)"
    code, out, _ = run(capsys, "reduce", "--index", "1")
    assert code == 0
    assert out.strip() == "1 * I(1)"


def test_reduce_verify(capsys):
    code, out, _ = run(
        capsys, "reduce", "--index", "2,1", "--verify", "--tau", "0+1i", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == [2, 1]
    assert payload["verify"]["passed"]
    assert payload["verify"]["residual"] <= 1e-6
    atoms = {tuple(a) for t in payload["expression"]["terms"] for a in t["atoms"]}
    assert atoms == {(0,), (3, 0), (2,), (1, 0)}


def test_reduce_verify_reduces_once(capsys, monkeypatch):
    reduce_index = emzv.reduction.reduce_index
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return reduce_index(*args, **kwargs)

    monkeypatch.setattr(cli, "reduce_index", counted)
    monkeypatch.setattr(emzv.reduction, "reduce_index", counted)
    assert run(capsys, "reduce", "--index", "1,2,0", "--verify")[0] == 0
    assert calls == [((1, 2, 0),)]


def test_reduce_trace(capsys):
    code, out, _ = run(capsys, "reduce", "--index", "2,1", "--trace", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [step["rule"] for step in payload["trace"]] == ["reflect", "odd_fay_split"]
    assert payload["trace_len"] == 2


def test_reduce_trace_and_verify_as_text(capsys):
    """One `# rule:` line per trace step, then the verify line; a residual
    above --tol prints FAIL and exits 5."""
    argv = ["reduce", "--index", "1,2,0", "--trace", "--verify"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "-1/2 * I(1)*I(2,0) + 1/2 * I(0)*I(0)*I(3,0) + 1/2 * I(0)*I(2)*I(1,0)"
    assert lines[1:3] == [
        "# parity_split: I(1,2,0) -> 1/2 * I(0)*I(1,2) + -1/2 * I(1)*I(2,0)",
        "# odd_fay_split: I(1,2) -> 1 * I(0)*I(3,0) + 1 * I(2)*I(1,0)",
    ]
    _, payload, _ = run(capsys, *argv, "--format", "json")
    assert json.loads(payload)["trace_len"] == 2
    assert re.fullmatch(r"# verify tau=1j: residual \d\.\d{3}e[-+]\d+ PASS", lines[3])
    assert len(lines) == 4
    code, failed, _ = run(capsys, *argv, "--tol", "0")
    assert code == cli.EXIT_VERIFY
    assert failed.splitlines()[:3] == lines[:3]
    assert failed.splitlines()[3] == lines[3][: -len("PASS")] + "FAIL"


def test_reduce_parse_error(capsys):
    code, _, err = run(capsys, "reduce", "--index", "2,x")
    assert code == 2
    assert "error" in err


def test_reduce_exponent_overflow_exit_code(capsys):
    # Weight 301 exceeds the input bound faypoly.MAX_WEIGHT (255).
    code, _, err = run(capsys, "reduce", "--index", "1,300")
    assert code == 2
    assert "error" in err and "255" in err


def test_reduce_fuel_exit_code(capsys):
    code, _, err = run(capsys, "reduce", "--index", "1,2,2,3", "--fuel", "2")
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize(
    "command", [("reduce", "--index", "2,1"), ("table", "--max-weight", "2", "--max-length", "2")]
)
def test_nonpositive_fuel_exit_code(capsys, command):
    code, out, err = run(capsys, *command, "--fuel", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "fuel must be positive" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "command",
    [
        ("reduce", "--index", "2,1", "--verify"),
        ("verify", "--family", "reflection", "--tau", "0+1i"),
    ],
)
def test_bad_tol_exit_code(capsys, command, tol):
    code, out, err = run(capsys, *command, "--tol", tol)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "tol must be finite and >= 0" in err


def test_zero_tol_is_accepted(capsys):
    code, out, _ = run(capsys, "verify", "--family", "prop-mat", "--max-weight", "3", "--tol", "0")
    assert code == 0 and out


REMOVED_CONFIG_KEYS = (
    "max_iint_length",
    "theta_max_terms",
    "grading_depth",
    "fit_degree_mode",
    "fit_extra_points",
    "fit_eps_blocks",
    "refine_factor",
    "pole_tolerance",
    "rho_factor",
    "circle_samples",
)


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read config file"),
        ("panel_order = abc\n", ":1: bad value 'abc'"),
        *[
            (f"tolerance = 1e-8\n{key} = 7\n", f":2: unknown key '{key}'")
            for key in REMOVED_CONFIG_KEYS
        ],
        ("tolerance = nan\n", "tolerance must be finite and > 0, got nan"),
        ("tolerance = -1\n", "tolerance must be finite and > 0, got -1.0"),
        ("panel_order = 0\n", "panel_order must lie in 1..100, got 0"),
        ("eps0 = 9.313225746154785e-10\n", ":1: unknown key 'eps0'"),
        ("eps0 = 0.001\n", ":1: unknown key 'eps0'"),
    ],
)
def test_config_file_errors_exit_code(tmp_path, capsys, text, message):
    path = tmp_path / "numerics.cfg"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, "eval", "--index", "2", "--tau", "0+1i", "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err and message in err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--index", "0,0", "--tau", "0+1i", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["re"] - 0.5) < 1e-10
    assert abs(payload["im"]) < 1e-10

    code, out, _ = run(capsys, "eval", "--index", "2", "--tau", "0+1i", "--format", "json")
    payload = json.loads(out)
    assert abs(payload["re"] + 3.289868133696453) < 1e-8

    code, out, _ = run(capsys, "eval", "--index", "3", "--tau", "0+2i", "--format", "json")
    payload = json.loads(out)
    assert abs(complex(payload["re"], payload["im"])) < 1e-8


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("text", "1.0 + 0.0i  (err <= 0.000e+00)\n"),
        ("json", '{"index": [], "re": 1.0, "im": 0.0, "err": 0.0}\n'),
    ],
)
def test_eval_empty_index(capsys, fmt, expected):
    code, out, err = run(capsys, "eval", "--index", "-", "--tau", "0+1i", "--format", fmt)
    assert (code, out, err) == (0, expected, "")


def test_eval_numeric_failure_exit_code(tmp_path, capsys):
    # length above the iterated-integral limit
    code, _, err = run(capsys, "eval", "--index", "0,0,0,0,0,0,0,0,0", "--tau", "0+1i")
    assert code == 4
    assert "error" in err
    # a regularized value that a coarse grid cannot resolve
    path = tmp_path / "numerics.cfg"
    path.write_text("panel_order = 2\n")
    code, out, err = run(capsys, "eval", "--index", "1,2", "--tau", "0+1i", "--config", str(path))
    assert code == 4 and out == ""
    assert err.startswith("error: refinement moved I(1, 2) by ")


def test_verify_prop_mat(capsys):
    code, out, err = run(capsys, "verify", "--family", "prop-mat", "--max-weight", "8")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines() if line]
    assert all(rep["passed"] for rep in reports)
    assert all(rep["residual"] == 0.0 for rep in reports)


def test_verify_families_small(capsys):
    for family in ("shuffle", "reflection", "parity", "trailing-ones"):
        code, out, _ = run(
            capsys,
            "verify",
            "--family",
            family,
            "--max-weight",
            "3",
            "--max-length",
            "3",
            "--tau",
            "0+1i",
        )
        assert code == 0, family
        reports = [json.loads(line) for line in out.splitlines() if line]
        assert reports and all(rep["passed"] for rep in reports), family


def check_kronecker_family(capsys, tau):
    code, out, err = run(capsys, "verify", "--family", "kronecker", "--tau", tau, "--tol", "1e-9")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines() if line]
    assert [rep["instance"] for rep in reports] == [f"point-{i}" for i in range(20)]
    assert all(rep["passed"] and rep["tau"] == tau for rep in reports)
    assert err == "# family=kronecker: 20/20 passed\n"


def test_verify_kronecker(capsys):
    check_kronecker_family(capsys, "0+1i")


@pytest.mark.parametrize("tau", ["0.5+0.8i", "0+0.1i"])
def test_verify_kronecker_off_axis_and_at_small_im_tau(capsys, tau):
    check_kronecker_family(capsys, tau)


def test_verify_kronecker_reports_the_tau_it_used(capsys):
    code, out, _ = run(capsys, "verify", "--family", "kronecker", "--tol", "1e-9")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines() if line]
    assert len(reports) == 20 and all(rep["tau"] == "0+1i" for rep in reports)


def test_verify_kronecker_catches_a_wrong_letter(capsys, monkeypatch):
    """One flipped sign in the Lambert factors (j = 3, so f_4 and the letters
    above it) fails the family: its identities are evaluated on the letters."""
    original = emzv.numerics._lambert_constants

    def flipped(top):
        eulerian, scale, zetas = original(top)
        scale = scale.copy()
        scale[3] = -scale[3]
        return eulerian, scale, zetas

    monkeypatch.setattr(emzv.numerics, "_lambert_constants", flipped)
    emzv.numerics._evaluator.cache_clear()  # no evaluator keeps letters across the patch
    try:
        code, out, err = run(capsys, "verify", "--family", "kronecker", "--tol", "1e-9")
    finally:
        emzv.numerics._evaluator.cache_clear()
    reports = [json.loads(line) for line in out.splitlines() if line]
    assert code == cli.EXIT_VERIFY, err
    assert len(reports) == 20 and not all(rep["passed"] for rep in reports)
    assert max(rep["residual"] for rep in reports) > 1e-4


@pytest.mark.parametrize("tau", ["0+1i", "0.5+0.8i"])
def test_verify_kronecker_catches_a_wrong_zeta_constant(capsys, monkeypatch, tau):
    """A relative error of 1e-6 in 2 zeta(4), the constant of f_4, fails
    every point of the family: at |alpha| = R/4, R the shortest period, it
    moves Fay's identity by about 1e-8, and oddness and the periods cannot
    see a constant."""
    original = emzv.numerics._lambert_constants

    def perturbed(top):
        eulerian, scale, zetas = original(top)
        zetas = zetas.copy()
        zetas[1] *= 1 + 1e-6
        return eulerian, scale, zetas

    monkeypatch.setattr(emzv.numerics, "_lambert_constants", perturbed)
    emzv.numerics._evaluator.cache_clear()  # no evaluator keeps letters across the patch
    try:
        code, out, err = run(capsys, "verify", "--family", "kronecker", "--tau", tau, "--tol", "1e-9")
    finally:
        emzv.numerics._evaluator.cache_clear()
    reports = [json.loads(line) for line in out.splitlines() if line]
    assert code == cli.EXIT_VERIFY, err
    assert len(reports) == 20 and not any(rep["passed"] for rep in reports)


def test_verify_reports_every_instance_when_some_raise(tmp_path, capsys):
    # At tau = 0.01i the two panel splits disagree by 1.86e-8 on I(0,4) and
    # I(4,0) and by 3.4e-8 on I(4), and by at most 1.25e-9 (I(2,2)) on every
    # other value the sweep reads: a 14.9x spread, all of it quadrature
    # error far above rounding.  tolerance = 5e-9 lies 4.0x above the largest
    # passing gap and 3.7x below the smallest raising one, so each raising
    # instance raises ToleranceError and no gap sits within rounding of the
    # tolerance; the sweep still reports every instance, then exits 4.
    path = tmp_path / "numerics.cfg"
    path.write_text("tolerance = 5e-9\n")
    argv = ["verify", "--family", "reduction", "--max-weight", "4", "--max-length", "2"]
    argv += ["--tau", "0+0.01i", "--config", str(path)]
    raising = ["4", "0,4", "4,0"]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 4
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == 21
    errors = [rep for rep in reports if "error" in rep]
    assert [rep["instance"] for rep in errors] == raising
    for rep in errors:
        index = tuple(int(e) for e in rep["instance"].split(","))
        assert rep["error"].startswith(f"ToleranceError: refinement moved I{index} by ")
        assert rep["passed"] is False
        assert rep["lhs"] is rep["rhs"] is rep["residual"] is None
    assert all(rep["passed"] for rep in reports if "error" not in rep)
    assert err.strip() == "# family=reduction: 18/21 passed, 3 raised"

    code, out, err = run(capsys, *argv, "--format", "text")
    assert code == 4
    lines = out.splitlines()
    assert len(lines) == 21
    failing = [line for line in lines if not line.endswith(" PASS")]
    assert [line.split(":")[0] for line in failing] == [f"reduction {k}" for k in raising]
    assert all(": error ToleranceError: " in line and line.endswith(" FAIL") for line in failing)
    assert err.strip() == "# family=reduction: 18/21 passed, 3 raised"


def test_a_letter_above_max_letter_is_a_numeric_failure(tmp_path, capsys):
    # I(29) needs the letter f_29, one above MAX_LETTER: the sweep reports
    # it as raised and still reports the 29 instances before it.
    out = tmp_path / "r.jsonl"
    argv = ["verify", "--family", "reflection", "--max-weight", "29", "--max-length", "1"]
    code, _, err = run(capsys, *argv, "--tau", "0+1i", "--out", str(out))
    assert (code, err.strip()) == (4, "# family=reflection: 29/30 passed, 1 raised")
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    assert [rep["instance"] for rep in reports] == [str(n) for n in range(30)]
    assert all(rep["passed"] for rep in reports[:29])
    assert reports[29]["error"] == "PreconditionError: letter order 29 exceeds the limit 28"
    for argv in (
        ["eval", "--index", "29", "--tau", "0+1i"],
        ["eval", "--index", "2,29,0,3", "--tau", "0+1i"],
        ["reduce", "--index", "29,1", "--verify"],
    ):
        assert run(capsys, *argv) == (4, "", "error: letter order 29 exceeds the limit 28\n"), argv


def test_verify_reduction_passes_at_small_im_tau(capsys):
    argv = ["verify", "--family", "reduction", "--max-weight", "4", "--max-length", "3"]
    for tau in ("0+0.05i", "0+0.01i"):
        code, _, err = run(capsys, *argv, "--tau", tau)
        assert (code, err.strip()) == (0, "# family=reduction: 56/56 passed"), tau


def test_tau_below_the_lambert_term_cap_exit_code(capsys):
    code, out, err = run(capsys, "eval", "--index", "2", "--tau", "0+0.0001i")
    assert code == 4 and out == ""
    assert err.startswith("error: the letters need ") and "LAMBERT_MAX_TERMS = 1024" in err


def test_eval_zero_one_word_of_length_five(capsys):
    code, out, err = run(capsys, "eval", "--index", "1,1,1,1,0", "--tau", "0+1i")
    assert code == 0 and err == ""


@pytest.mark.parametrize(
    "family, max_weight, max_length, tau, count",
    [("fay", 8, 5, "0.5+0.8i", 1507), ("reduction", 4, 6, "0+1i", 462)],
)
def test_verify_long_sweeps(capsys, family, max_weight, max_length, tau, count):
    argv = ["--max-weight", str(max_weight), "--max-length", str(max_length), "--tau", tau]
    code, out, err = run(capsys, "verify", "--family", family, *argv)
    assert code == 0
    assert err.strip() == f"# family={family}: {count}/{count} passed"


def test_verify_needs_tau(capsys):
    code, _, err = run(capsys, "verify", "--family", "fay")
    assert code == 2


def test_verify_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code, _, _ = run(
        capsys,
        "verify",
        "--family",
        "reflection",
        "--max-weight",
        "2",
        "--max-length",
        "2",
        "--tau",
        "0+1i",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    reports = [json.loads(line) for line in lines]
    assert all(rep["passed"] for rep in reports)
    # An empty sweep writes what stdout would print: nothing.
    argv = ["verify", "--family", "reflection", "--max-weight", "-1", "--tau", "0+1i"]
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, "")
    code, _, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0 and out_path.read_text() == ""


def test_table_counts_and_determinism(tmp_path, capsys):
    paths = []
    for i in range(3):
        path = tmp_path / f"table{i}.jsonl"
        code, _, _ = run(
            capsys,
            "table",
            "--max-weight",
            "3",
            "--max-length",
            "3",
            "--out",
            str(path),
        )
        assert code == 0
        paths.append(path)
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    rows = [json.loads(line) for line in blobs[0].decode().splitlines()]
    # compositions of w <= 3 into r parts for r = 0..3: 1 + 4 + 10 + 20
    assert len(rows) == 35
    by_index = {tuple(r["index"]): r for r in rows}
    assert by_index[(0, 2)]["terminal"] and by_index[(0, 2)]["trace_len"] == 0
    assert not by_index[(2, 1)]["terminal"]


# sha256 of the `emzv table` output bytes, as the benchmark records them.
TABLE_SHA256 = {
    (5, 3): "8e56ef7ebf16181195978f64ad148ce9db7c88457280ca1e73899fc872d47564",
    (8, 4): "0b715709407a4c73c928e4fae628ff1644814d97604d13e045d14b80b124bab7",
}


@pytest.mark.parametrize("bounds", sorted(TABLE_SHA256))
def test_table_golden_digests(tmp_path, capsys, bounds):
    argv = ["table", "--max-weight", str(bounds[0]), "--max-length", str(bounds[1])]
    path = tmp_path / "table.jsonl"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TABLE_SHA256[bounds]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256[bounds]


def test_table_fuel_exit_code_writes_nothing(tmp_path, capsys):
    argv = ["table", "--max-weight", "4", "--max-length", "3", "--fuel", "1"]
    path = tmp_path / "table.jsonl"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 3 and out == ""
    assert "fuel" in err
    assert not path.exists()
    # An --out file that already existed keeps its bytes, and no file
    # appears beside it.
    path.write_bytes(b"an earlier table\n")
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 3 and out == "" and "fuel" in err
    assert path.read_bytes() == b"an earlier table\n"
    assert list(tmp_path.iterdir()) == [path]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and "fuel" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--max-weight", "2", "--max-length", "2"),
        ("verify", "--family", "prop-mat", "--max-weight", "3"),
    ],
)
def test_unwritable_out_exit_code(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.jsonl"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def refuse_work(*args, **kwargs):
    raise AssertionError("work started before --out was checked")


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--max-weight", "8", "--max-length", "5"),
        ("verify", "--family", "reduction", "--max-weight", "6", "--max-length", "4", "--tau", "0+1i"),
    ],
)
def test_unusable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "reduce_index", refuse_work)
    monkeypatch.setattr(cli, "_family_instances", refuse_work)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    for path in (tmp_path / "missing" / "out.jsonl", blocker / "out.jsonl", tmp_path):
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out


def test_selftest_fails_a_check_on_a_typed_numeric_failure(capsys, monkeypatch):
    def raise_tolerance(*args, **kwargs):
        raise emzv.numerics.ToleranceError("refinement moved I(2, 1)")

    monkeypatch.setattr(cli, "_sides", raise_tolerance)
    code, out, _ = run(capsys, "selftest")
    assert code == 5
    assert out.splitlines()[-1] == "FAIL reduce and verify (2,1): refinement moved I(2, 1)"
    assert out.count("FAIL") == 1


def test_selftest_lets_a_bug_in_a_check_propagate(capsys, monkeypatch):
    def raise_type_error(*args, **kwargs):
        raise TypeError("a bug in the check")

    monkeypatch.setattr(cli, "_sides", raise_type_error)
    with pytest.raises(TypeError, match="a bug in the check"):
        main(["selftest"])


@pytest.mark.parametrize("taus", [("1.5+1i", "-0.5+1i"), ("1e300+1i", "0+1i")])
def test_eval_takes_tau_mod_one(capsys, taus):
    outs = [run(capsys, "eval", "--index", "2,0,3", f"--tau={tau}", "--format", "json") for tau in taus]
    assert outs[0] == outs[1] and outs[0][0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--index", "2,1", "--verify", "--format", "json"],
        ["eval", "--index", "2,0,3"],
        ["verify", "--family", "reflection", "--max-weight", "2", "--max-length", "2", "--format", "text"],
    ],
)
@pytest.mark.parametrize("tau", ["-0.5+1i", "-.37+0.3i", "-1e-1+0.5i"])
def test_negative_real_part_needs_no_equals_sign(capsys, argv, tau):
    joined = run(capsys, *argv, f"--tau={tau}")
    assert joined[0] == 0
    assert run(capsys, *argv, "--tau", tau) == joined
    assert run(capsys, argv[0], "--tau", tau, *argv[1:]) == joined


def test_reduce_verify_reports_reduced_tau(capsys):
    argv = ["reduce", "--index", "2,1", "--verify", "--format", "json", "--tau"]
    code, out, _ = run(capsys, *argv, "2.25+1i")
    assert code == 0
    assert json.loads(out)["verify"]["tau"] == str(0.25 + 1j)
    assert run(capsys, *argv, "0.25+1i") == (code, out, "")


def test_non_finite_tau_exit_code(capsys):
    code, out, err = run(capsys, "eval", "--index", "2", "--tau", "1e400+1i")
    assert code == 2 and out == "" and "finite" in err


# --- The import boundary: the exact side never loads the numeric layer.
# Each check runs in a fresh interpreter, since this session has numpy.

SRC = str(Path(emzv.__file__).resolve().parents[1])


def fresh(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["table", "--max-weight", "5", "--max-length", "3"],
        ["reduce", "--index", "1,2,0,3"],
    ],
)
def test_exact_commands_leave_numerics_unloaded(argv):
    done = fresh(
        "import sys\n"
        "import emzv.cli\n"
        f"assert {argv!r} is None or emzv.cli.main({argv!r}) == 0\n"
        "print(sorted({'numpy', 'emzv.numerics'} & set(sys.modules)), file=sys.stderr)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == "[]\n"


def test_numeric_commands_load_numerics_in_a_fresh_interpreter():
    commands = [
        ["reduce", "--index", "1,2,0", "--verify"],
        ["eval", "--index", "2,0,3", "--tau", "0+1i"],
        ["verify", "--family", "kronecker", "--tol", "1e-9"],
        ["selftest"],
    ]
    done = fresh(
        "import sys\n"
        "from emzv.cli import main\n"
        f"sys.exit(max(main(argv) for argv in {commands!r}))\n"
    )
    assert done.returncode == 0, done.stderr
    assert "FAIL" not in done.stdout


def test_evaluator_leaves_numpy_polynomial_unloaded():
    done = fresh(
        "import sys\n"
        "from emzv.numerics import Evaluator\n"
        "Evaluator(1j).value((1, 2, 0))\n"
        "sys.exit('numpy.polynomial' in sys.modules)\n"
    )
    assert done.returncode == 0, done.stderr


NUMERIC_NAMES = (
    "Evaluator",
    "NumericsConfig",
    "Tau",
    "get_evaluator",
    "parse_tau",
    "zeta",
)

# One-line wrappers over get_evaluator(tau, cfg) that the package no longer ships.
REMOVED_NUMERIC_NAMES = ("emzv_admissible", "emzv_regularized", "eval_expression", "f_n")
# The double-precision theta series, which the letter-built
# Evaluator.kronecker replaced.
REMOVED_THETA_NAMES = ("kronecker_f", "theta", "theta_prime0", "THETA_MAX_TERMS", "_odd_series")


def test_exact_modules_never_import_numerics():
    for name in ("words", "faypoly", "relations", "reduction"):
        tree = ast.parse(Path(getattr(emzv, name).__file__).read_text())
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert not {"numerics", "emzv.numerics", "numpy"} & imported, name


def test_package_serves_numeric_names_from_numerics():
    for name in NUMERIC_NAMES:
        assert getattr(emzv, name) is getattr(emzv.numerics, name), name
        assert name in emzv.__all__
    namespace = {}
    exec("from emzv import *", namespace)
    assert all(namespace[name] is getattr(emzv, name) for name in emzv.__all__)
    assert {"reduce_index", "Expression", "shuffle", "c_coeff"} <= set(namespace)
    assert not {"SparsePoly", "p_poly", "antipode", "coproduct"} & set(namespace)
    for name in ("Combo", "WordCombo", "shuffle_combo", "simplify_zero_one", "verify_reduction"):
        assert name not in emzv.__all__ and not hasattr(emzv, name), name
    # The CLI checks a reduction as an identity; the exact side ships no check.
    assert not hasattr(emzv.reduction, "verify_reduction")
    assert len(emzv.__all__) == 29
    for name in REMOVED_NUMERIC_NAMES:
        assert name not in emzv.__all__ and not hasattr(emzv.numerics, name), name
    for name in REMOVED_THETA_NAMES:
        assert name not in emzv.__all__ and not hasattr(emzv.numerics, name), name
        with pytest.raises(AttributeError):
            getattr(emzv, name)
    with pytest.raises(AttributeError):
        emzv.no_such_name
