import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import virtualk.cli as cli
import virtualk.virtual_ring as vr
from conftest import perturbed_euler
from virtualk.cli import MAX_K_MAX, MAX_N, main
from virtualk.coords import Coords
from virtualk.expr import MAX_ADAMS_INDEX, MAX_EXPONENT, parse
from virtualk.verify import run_verify

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import catalogue  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_text(capsys):
    code, out, _ = run(capsys, "eval", "--n", "2", "psi[2](xe[0,0])")
    assert code == 0
    assert out.strip() == "-e[0,0] + 2*xe[0,0] + e[0,1]"


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "--n", "2", "--json", "gamma(one[0])")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == "loc"
    assert {"index": ["e", 0, 0], "value": ["1"]} in doc["coeffs"]
    assert {"index": ["e", 0, 1], "value": ["1"]} in doc["coeffs"]


def test_eval_u_display(capsys):
    code, out, _ = run(capsys, "eval", "--n", "2", "u[1,0]*u[1,0]")
    assert code == 0
    assert out.strip() == "u[1,0]"


def test_mul_and_adams_verbs(capsys):
    code, out, _ = run(capsys, "mul", "--n", "2", "x[1]", "x[1]")
    assert code == 0
    assert out.strip() == "one[0] - 2*x[0] + x[0]^2"
    code, out2, _ = run(capsys, "adams", "2", "--n", "2", "xe[0,0]")
    assert code == 0
    assert out2.strip() == "-e[0,0] + 2*xe[0,0] + e[0,1]"


def test_localize_delocalize(capsys):
    code, out, _ = run(capsys, "localize", "--n", "2", "x[0]")
    assert code == 0
    assert out.strip() == "xe[0,0] - e[0,1]"
    code, out, _ = run(capsys, "delocalize", "--n", "2", "xe[0,0] - e[0,1]")
    assert code == 0
    assert out.strip() == "x[0]"


def test_basis_flag(capsys):
    code, out, _ = run(capsys, "eval", "--n", "2", "--basis", "u", "e[0,1]")
    assert code == 0
    assert out.strip() == "u[1,0] + u[1,1]"
    code, _, err = run(capsys, "eval", "--n", "2", "--basis", "sector", "e[0,1]")
    assert code == 2
    assert "delocalize" in err


def test_line_verb(capsys):
    code, out, _ = run(capsys, "line", "--n", "2", "sigma[1]")
    assert code == 0
    assert out.startswith("line element: f=(0,1)")
    code, out, _ = run(capsys, "line", "--n", "2", "2*sigma[1]")
    assert code == 0
    assert out.startswith("not a line element")
    code, out, _ = run(capsys, "line", "--n", "2", "--json", "nu[0]")
    doc = json.loads(out)
    assert doc["is_line_element"] is True
    assert doc["f"] == [0, 0]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "--n", "3", "x[9]")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "eval", "--n", "3", "x[0] + e[0,0]")
    assert code == 2


def test_verify_ok(capsys):
    code, out, _ = run(
        capsys, "verify", "--n-min", "2", "--n-max", "2", "--suite", "span",
        "--suite", "presentation",
    )
    assert code == 0
    assert "PASS" in out and "0 failures" in out


def test_verify_json_deterministic(capsys, tmp_path):
    args = ["verify", "--n-min", "2", "--n-max", "3", "--suite", "line-elements", "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["summary"]["failures"] == 0
    assert doc["timing"] is None


def test_verify_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--n-min", "2", "--n-max", "2", "--suite", "span",
        "--json", "--out", str(path),
    )
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)


@pytest.mark.parametrize("target", ["missing/report.json", "."],
                         ids=["missing-directory", "directory"])
def test_verify_unwritable_out_exits_2_before_any_suite(capsys, no_work, tmp_path, target):
    code, out, err = run(capsys, "verify", "--n-max", "2", "--out", str(tmp_path / target))
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_verify_out_is_left_as_it_was_when_the_run_fails(capsys, tmp_path):
    path = tmp_path / "report.json"
    path.write_text("earlier report\n")
    code, _, err = run(capsys, "verify", "--suite", "nope", "--out", str(path))
    assert code == 2 and "unknown suite" in err
    assert path.read_text() == "earlier report\n"
    code, out, _ = run(capsys, "verify", "--n-max", "2", "--suite", "span", "--out", str(path))
    assert code == 0 and path.read_text() == out
    fresh = tmp_path / "new.json"
    code, _, err = run(capsys, "verify", "--n-min", "2", "--n-max", "2", "--suite", "nosuch",
                       "--out", str(fresh))
    assert code == 2 and "unknown suite" in err
    assert not fresh.exists()


def test_verify_out_is_written_in_full_when_stdout_closes_early(tmp_path):
    # As in `verify --json --out FILE | head -c 200`: the reader closes the pipe
    # after 200 bytes of a report far larger than a pipe buffer.  The run ends
    # quietly with 141 (128 + SIGPIPE), without a traceback on stderr.
    path = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = ["verify", "--n-min", "2", "--n-max", "3", "--json", "--out", str(path)]
    proc = subprocess.Popen([sys.executable, "-m", "virtualk.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(200)) == 200
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
    assert path.read_text() == run_verify(2, 3).to_json() + "\n"
    # A short answer sits in the stdout buffer until main flushes it; a reader
    # gone before that flush must not cost a traceback at exit either.
    buffered = {k: v for k, v in env.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "virtualk.cli", "eval", "--n", "3", "x[0]"],
                              env=buffered, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 141 and done.stderr == b""


@pytest.mark.parametrize("expression", [
    "(" * 200 + "x[0]" + ")" * 200,
], ids=["nested-200"])
def test_expressions_too_deep_exit_2_with_one_error_line(capsys, expression):
    code, out, err = run(capsys, "eval", "--n", "3", expression)
    assert code == 2
    assert out == "" and err == "error: the expression is nested too deeply\n"


@pytest.mark.parametrize("expression, same_as", [
    ("x[0]" + "+x[0]" * 1000, "1001*x[0]"),
    ("x[0]" + "*x[0]" * 1000, "x[0]^1001"),
    ("e[0,1]" + "-u[1,0]+2" * 500, "e[0,1] - 500*u[1,0] + 1000"),
], ids=["flat-sum-1000", "flat-product-1000", "flat-mixed-1000"])
def test_flat_chains_of_1000_terms_evaluate(capsys, expression, same_as):
    expected = run(capsys, "eval", "--n", "3", same_as)
    assert expected[0] == 0
    assert run(capsys, "eval", "--n", "3", expression) == expected


def test_a_flat_sum_reports_a_basis_mix_at_its_end(capsys):
    code, out, err = run(capsys, "eval", "--n", "3", "x[0]" + "+x[0]" * 1000 + "+e[0,0]")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot mix sector-basis and localized-basis atoms")


def test_an_expression_after_double_dash_may_start_with_a_minus(capsys):
    # argparse reads "-2*x[1]" as an option unless "--" comes before it.
    with pytest.raises(SystemExit) as exc:
        main(["mul", "--n", "2", "x[0]", "-2*x[1]"])
    assert exc.value.code == 2
    capsys.readouterr()
    expected = run(capsys, "eval", "--n", "2", "x[0]*(-2*x[1])")
    assert expected[0] == 0
    assert run(capsys, "mul", "--n", "2", "--", "x[0]", "-2*x[1]") == expected


def test_nesting_150_deep_still_evaluates(capsys):
    code, out, _ = run(capsys, "eval", "--n", "3", "(" * 150 + "x[0]" + ")" * 150)
    assert code == 0 and out == "x[0]\n"


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(vr, "euler_factor", perturbed_euler)
    code, out, _ = run(
        capsys, "verify", "--n-min", "2", "--n-max", "2", "--suite", "product-oracle",
    )
    assert code == 1
    assert "FAIL" in out


def _masked(text):
    # The elapsed time is the only part of a text summary that varies.
    return re.sub(r"\(\d+\.\d\ds\)$", "(T)", text.rstrip("\n"))


@pytest.mark.parametrize("verbose", [False, True], ids=["summary", "verbose"])
def test_verify_text_matches_the_fully_rendered_report_under_a_defect(capsys, monkeypatch,
                                                                      verbose):
    monkeypatch.setattr(vr, "euler_factor", perturbed_euler)
    full = run_verify(2, 3)
    assert len(full.failures) > 50 and all(c.lhs and c.rhs for c in full.checks)
    code, out, _ = run(capsys, "verify", "--n-min", "2", "--n-max", "3",
                       *(["--verbose"] if verbose else []))
    assert code == 1
    assert _masked(out) == _masked(full.text_summary(verbose))


@pytest.fixture
def str_calls(monkeypatch):
    calls = []
    render = Coords.__str__

    def counted(self):
        calls.append(1)
        return render(self)

    monkeypatch.setattr(Coords, "__str__", counted)
    return calls


def test_a_passing_text_verify_renders_no_side(capsys, str_calls):
    assert run(capsys, "verify", "--n-min", "2", "--n-max", "3")[0] == 0
    assert run(capsys, "verify", "--n-min", "2", "--n-max", "3", "--verbose")[0] == 0
    assert str_calls == []


def test_a_json_verify_renders_every_side(capsys, str_calls):
    code, out, _ = run(capsys, "verify", "--n-min", "2", "--n-max", "2", "--json")
    assert code == 0 and str_calls
    assert all(c["lhs"] and c["rhs"] for c in json.loads(out)["checks"])


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


@pytest.fixture
def no_work(monkeypatch):
    """Make any evaluation or verify run fail the test, so bounds are checked
    without running a large value."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started for an out-of-bounds input")

    monkeypatch.setattr(cli, "evaluate", refuse)
    monkeypatch.setattr(cli, "run_verify", refuse)
    monkeypatch.setattr(cli, "is_line_element", refuse)


@pytest.mark.parametrize("argv", [
    ["eval", "--n", "9", "x[0]"],
    ["eval", "--n", "1", "x[0]"],
    ["eval", "--n", "3", "x[0]^%d" % (MAX_EXPONENT + 1)],
    ["eval", "--n", "3", "x[0]^-%d" % (MAX_EXPONENT + 1)],
    ["eval", "--n", "3", "(x[0] + x[1])^200000"],
    ["eval", "--n", "3", "zeta^%d" % (MAX_EXPONENT + 1)],
    ["eval", "--n", "3", "psi[%d](x[0])" % (MAX_ADAMS_INDEX + 1)],
    ["eval", "--n", "3", "psi[3000000](x[0])"],
    ["adams", str(MAX_ADAMS_INDEX + 1), "--n", "3", "x[0]"],
    ["localize", "--n", "3", "x[0]^200000"],
    ["eval", "--n", "8", "x[0]^1500 * x[0]^600"],
    ["eval", "--n", "8", "psi[2](x[0]^-1500) + x[0]^501"],
    ["line", "--n", str(MAX_N + 1), "sigma[1]"],
    ["verify", "--n-max", str(MAX_N + 1)],
    ["verify", "--n-min", str(MAX_N + 1), "--n-max", str(MAX_N + 1)],
    ["verify", "--n-min", "1", "--n-max", "2"],
    ["verify", "--n-min", "3", "--n-max", "3", "--suite", "adams-oracle", "--k-max", "-5"],
    ["verify", "--k-max", "1"],
    ["verify", "--k-max", str(MAX_K_MAX + 1)],
    ["line", "--n", "3", "--k-max", "1", "sigma[1]"],
    ["line", "--n", "3", "--k-max", str(MAX_K_MAX + 1), "sigma[1]"],
])
def test_inputs_beyond_the_bounds_exit_2_before_any_work(capsys, no_work, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "error" in err


def test_bounds_admit_the_documented_limits():
    assert MAX_N >= 8 and MAX_EXPONENT >= 2000 and MAX_ADAMS_INDEX >= 3000
    assert MAX_K_MAX >= 2 * MAX_N
    for text in ("x[0]^%d" % MAX_EXPONENT, "x[0]^-%d" % MAX_EXPONENT,
                 "x[0]^1500 * x[0]^-500", "psi[%d](x[0])" % MAX_ADAMS_INDEX):
        parse(text, MAX_N)


@pytest.mark.parametrize("expression", [
    "(x[0] + 2*x[3] - x[7] + 5*one[4])^-2000",
    "(x[0] + x[1] + x[7])^-2000",
])
def test_powers_too_long_to_print_exit_2(capsys, expression):
    code, out, err = run(capsys, "eval", "--n", "8", expression)
    assert code == 2
    assert out == "" and "the power has coefficients of more than" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no conversion limit")
def test_the_power_check_follows_the_interpreter_limit(capsys):
    # At a 640-digit limit (the least Python allows) the powers -250 and 700
    # print, and the powers -300 and 800, whose answers hold longer integers,
    # do not.
    base = "(x[0]^2 + 3*x[1] + x[2])"
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        code, out, _ = run(capsys, "eval", "--n", "3", base + "^-250")
        assert code == 0 and "/" in out
        code, out, _ = run(capsys, "eval", "--n", "3", base + "^700")
        assert code == 0 and out
        for exp in ("-300", "800"):
            code, out, err = run(capsys, "eval", "--n", "3", base + "^" + exp)
            assert code == 2 and "more than 640 digits" in err
        sys.set_int_max_str_digits(0)
        for exp in ("-300", "800"):
            code, out, _ = run(capsys, "eval", "--n", "3", base + "^" + exp)
            assert code == 0
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("k_max", [-5, 0, 1])
def test_run_verify_rejects_k_max_below_two(k_max):
    with pytest.raises(ValueError, match="k_max"):
        run_verify(3, 3, ("adams-oracle",), k_max)


# ---------------------------------------------------------------------------
# One parser per process: ``main`` may be called repeatedly.


def _parsed(parser, argv):
    """``vars`` of the parsed argv, or the exit code of a usage error."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("sequence", [
    [["verify", "--suite", "span", "--suite", "psi-ring"], ["verify"]],
    [["eval", "--n", "3", "--json", "x[0]"], ["eval", "--n", "3", "x[0]"]],
    [["verify", "--json", "--verbose"], ["verify"]],
    [["line", "--n", "3", "--k-max", "5", "sigma[1]"], ["line", "--n", "3", "sigma[1]"]],
    [["eval", "--n", "3", "--basis", "u", "e[0,1]"],
     ["eval", "--n", "3", "--basis", "auto", "e[0,1]"], ["eval", "--n", "3", "e[0,1]"]],
    [["eval", "--n", "3", "--basis", "nope", "x[0]"], ["eval", "--n", "3", "x[0]"]],
    [["adams", "x", "--n", "3", "x[0]"], ["adams", "2", "--n", "3", "x[0]"]],
])
def test_the_cached_parser_keeps_no_state_between_calls(sequence):
    cached = cli._build_parser()
    for argv in sequence + sequence[::-1] + sequence:
        assert _parsed(cached, argv) == _parsed(cli._build_parser.__wrapped__(), argv), argv
    assert cli._build_parser() is cached


def test_a_usage_error_leaves_the_next_call_intact(capsys):
    code, out, _ = run(capsys, "verify", "--n-min", "2", "--n-max", "2", "--suite", "span")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n-min", "two"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "verify", "--n-min", "2", "--n-max", "2", "--suite", "span")[:2] == (
        code, out)


def test_importing_the_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import virtualk.cli as cli\n"
        "print(len(built), cli._build_parser.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.split() == ["0", "0"]


def test_fifty_calls_build_the_parser_once(capsys):
    cli._build_parser.cache_clear()
    for _ in range(50):
        assert run(capsys, "eval", "--n", "3", "x[0]*x[1]")[0] == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 49)


def test_small_catalogue_queries_match_their_goldens_forward_and_reversed(capsys):
    golden = json.loads((ROOT / "perfbench" / "golden" / "query-mix.json").read_text())
    queries = catalogue(golden["catalogue_seed"])
    small = [i for i, q in enumerate(queries) if not q.large][:300]
    for index in small + small[::-1]:
        expected = golden["queries"][index]
        assert list(queries[index].argv) == expected["argv"]
        code, out, _ = run(capsys, *expected["argv"])
        assert (code, out) == (expected["rc"], expected["stdout"]), expected["argv"]
