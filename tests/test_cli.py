import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import virtualk.cli as cli
import virtualk.virtual_ring as vr
from conftest import perturbed_euler, record_calls
from virtualk.cli import MAX_K_MAX, MAX_N, main
from virtualk.coords import Coords
from virtualk.expr import MAX_ADAMS_INDEX, MAX_EXPONENT, parse
from virtualk.verify import SUITES, Check, run_verify

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


def test_verify_json_is_the_same_bytes_under_any_hash_seed():
    # No output order may follow a hash: str hashes change with the seed.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-m", "virtualk.cli", "verify", "--n-min", "2", "--n-max", "3",
            "--json"]
    first, second = (subprocess.run(argv, env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
                                    check=True, timeout=300).stdout for seed in ("0", "1"))
    assert first == second and first.startswith(b"{")


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


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
def test_a_failing_json_verify_prints_the_collected_report(capsys, monkeypatch, tmp_path, out):
    monkeypatch.setattr(vr, "euler_factor", perturbed_euler)
    expected = run_verify(2, 3).to_json() + "\n"
    path = tmp_path / "report.json"
    code, printed, _ = run(capsys, "verify", "--n-min", "2", "--n-max", "3", "--json",
                           *(["--out", str(path)] if out else []))
    assert code == 1 and printed == expected
    assert path.read_text() == expected if out else not path.exists()


@pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
def test_a_run_that_stops_leaves_the_out_file_as_it_was(capsys, monkeypatch, tmp_path, form):
    # The suite stops at n = 3, after the checks of n = 2 were written.
    path = tmp_path / "report.json"
    path.write_text("earlier report\n")
    span, calls = SUITES["span"], []

    def stops_at_3(n, k_max, render_passing=True):
        calls.append(n)
        if n == 3:
            raise RuntimeError("stopped")
        return span(n, k_max, render_passing=render_passing)

    monkeypatch.setitem(SUITES, "span", stops_at_3)
    with pytest.raises(RuntimeError):
        main(["verify", "--n-min", "2", "--n-max", "3", "--suite", "span", *form,
              "--out", str(path)])
    assert calls == [2, 3] and capsys.readouterr().out == ""
    assert path.read_bytes() == b"earlier report\n"
    assert os.listdir(tmp_path) == ["report.json"]


def test_a_text_verify_holds_no_passing_check_beyond_its_suite_and_n(capsys, monkeypatch):
    # Every suite hands out watched copies of its checks, and a finalizer
    # counts each (n, suite) down as its checks die.  When a suite starts,
    # only the checks of the suite just before it may be alive (the loop that
    # received them holds them until the next ones come); a report that kept
    # its passing checks would keep every earlier (n, suite) alive too.
    class Watched(Check):
        __slots__ = ("__weakref__",)

    live, order = {}, []

    def died(key):
        live[key] -= 1

    def watched(suite, produce):
        def run_suite(n, k_max, **kwargs):
            held = {key for key, count in live.items() if count}
            assert held <= set(order[-1:]), ("checks outlived their suite", held)
            key = (n, suite)
            order.append(key)
            checks = [Watched(c.id, c.status, c.lhs, c.rhs) for c in produce(n, k_max, **kwargs)]
            live[key] = len(checks)
            for c in checks:
                weakref.finalize(c, died, key)
            return checks
        return run_suite

    for suite, produce in list(SUITES.items()):
        monkeypatch.setitem(SUITES, suite, watched(suite, produce))
    assert run(capsys, "verify", "--n-min", "2", "--n-max", "5")[0] == 0
    assert len(order) == 4 * len(SUITES) and not any(live.values())


@pytest.fixture
def str_calls(monkeypatch):
    return record_calls(monkeypatch, Coords, "__str__")


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
    for suite in SUITES:
        monkeypatch.setitem(SUITES, suite, refuse)
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
    ["line", "--n", "1", "sigma[1]"],
    ["mul", "--n", str(MAX_N + 1), "x[0]", "x[0]"],
    ["eval", "--n", "3", "psi[-1](x[0])"],
    ["adams", "--n", "3", "--", "-1", "x[0]"],
])
def test_inputs_beyond_the_bounds_exit_2_before_any_work(capsys, no_work, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "error" in err


_NEGATIVE_INDEX = "Adams index -1 is not in 0..%d; psi[0] is the augmentation" % MAX_ADAMS_INDEX


@pytest.mark.parametrize("argv,message", [
    (["eval", "--n", "3", "psi[-1](x[0])"], _NEGATIVE_INDEX + " (at position 4)"),
    (["adams", "--n", "3", "--", "-1", "x[0]"], _NEGATIVE_INDEX + " (in k at position 0)"),
    (["adams", "2", "--n", "3", "x[1] + e[0,9]"],
     "e index 9 out of range for n=3 (in expression at position 11)"),
    (["mul", "--n", "3", "x[1]", "x[5]"], "x index 5 out of range for n=3 (in rhs at position 2)"),
    (["mul", "--n", "3", "(x[1]", "x[2]"], "expected ) (in lhs at position 5)"),
    (["localize", "--n", "3", "x[1]+"], "unexpected end of input (in expression at position 5)"),
    (["delocalize", "--n", "3", "e[0,7]"],
     "e index 7 out of range for n=3 (in expression at position 4)"),
    # Checks across the arguments: the x[0] budget at the atom that crosses
    # it, a basis check at the node that does not fit.
    (["mul", "--n", "8", "x[0]^1500", "x[1]*x[0]^600"],
     "the exponents of x[0] sum to 2100, over the bound 2000 (in rhs at position 5)"),
    (["mul", "--n", "2", "x[1]", "e[0,0]"], "cannot mix sector-basis and localized-basis "
     "atoms; use gamma/gammainv (in rhs at position 0)"),
    (["localize", "--n", "2", "e[0,0]"],
     "gamma expects a sector-basis expression (in expression at position 0)"),
    (["mul", "--n", "2", "e[0,1] + x[1]", "2"], "cannot mix sector-basis and localized-basis "
     "atoms; use gamma/gammainv (in lhs at position 9)"),
    (["mul", "--n", "2", "x[1]", "3*e[0,0]"], "cannot mix sector-basis and localized-basis "
     "atoms; use gamma/gammainv (in rhs at position 2)"),
    (["adams", "--n", "3", "2", "1 + zeta"],
     "psi/eps apply to ring elements, not scalars (in expression at position 0)"),
    (["delocalize", "--n", "3", "e[0,1] - (2*x[1])^2"], "cannot mix sector-basis and "
     "localized-basis atoms; use gamma/gammainv (in expression at position 12)"),
], ids=["eval-negative-index", "adams-negative-index", "adams", "mul-rhs", "mul-unclosed-lhs",
        "localize", "delocalize", "mul-x0-budget", "mul-basis-mix", "localize-basis",
        "mul-basis-mix-in-lhs", "mul-basis-mix-inside-rhs", "adams-scalar",
        "delocalize-basis-mix-inside"])
def test_a_parse_error_is_placed_in_the_argument_that_holds_it(capsys, no_work, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


_TRAILING = "unexpected trailing input ')' (in %s at position %d)"


@pytest.mark.parametrize("argv,message", [
    (["adams", "2", "--n", "2", "x[0]) + (x[1]"], _TRAILING % ("expression", 4)),
    (["mul", "--n", "2", "x[0])*(x[1]", "x[0]"], _TRAILING % ("lhs", 4)),
    (["localize", "--n", "2", "x[0]) + e[0,1] + gamma(x[1]"], _TRAILING % ("expression", 4)),
    (["delocalize", "--n", "2", "e[0,0]) + gammainv(e[0,1]"], _TRAILING % ("expression", 6)),
    (["mul", "--n", "2", "", "x[0]"], "unexpected end of input (in lhs at position 0)"),
], ids=["adams", "mul", "localize", "delocalize", "mul-empty-lhs"])
def test_each_argument_must_be_an_expression_on_its_own(capsys, no_work, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv,texts", [
    (["eval", "--n", "3", "x[1]*x[2]"], ["x[1]*x[2]"]),
    (["mul", "--n", "3", "x[1] + 1", "x[2]"], ["x[1] + 1", "x[2]"]),
    (["adams", "2", "--n", "3", "x[1]"], ["x[1]"]),
    (["localize", "--n", "3", "x[1]"], ["x[1]"]),
    (["delocalize", "--n", "3", "e[1,2]"], ["e[1,2]"]),
])
def test_each_verb_argument_is_parsed_once(capsys, monkeypatch, argv, texts):
    calls = record_calls(monkeypatch, cli, "parse")
    assert run(capsys, *argv)[0] == 0
    assert [text for text, _ in calls] == texts


def test_line_takes_no_basis_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["line", "--n", "2", "--basis", "sector", "sigma[1]"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --basis" in capsys.readouterr().err


def test_line_takes_no_k_max_option(capsys, no_work):
    # Membership needs no k bound: a class outside the group fails the power
    # law at some k <= n.  So the option is a usage error, before any work.
    with pytest.raises(SystemExit) as exc:
        main(["line", "--n", "3", "--k-max", "5", "sigma[1]"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --k-max" in capsys.readouterr().err


#: Every option of every subcommand, besides -h/--help.  A new option is a
#: deliberate edit of this table.
OPTIONS = {
    **{verb: {"--n", "--json", "--basis"}
       for verb in ("eval", "mul", "adams", "localize", "delocalize")},
    "line": {"--n", "--json"},
    "verify": {"--n-min", "--n-max", "--suite", "--k-max", "--json", "--verbose", "--out"},
}


def test_the_options_of_each_subcommand_are_the_documented_ones():
    (subcommands,) = [a for a in cli._build_parser()._actions if a.choices]
    found = {verb: {o for a in sp._actions if a.dest != "help" for o in a.option_strings}
             for verb, sp in subcommands.choices.items()}
    assert found == OPTIONS


@pytest.mark.parametrize("expression,message", [
    ("x[1]+", "unexpected end of input (at position 5)"),
    ("x[1] + e[0,0]", "cannot mix sector-basis and localized-basis atoms; "
     "use gamma/gammainv (at position 7)"),
    ("gamma(e[0,0])", "gamma expects a sector-basis expression (at position 6)"),
    ("gammainv(2*x[1])", "gammainv expects a localized-basis expression (at position 11)"),
    ("L(0,0,0; 1, 2, x[2])", "L(...) scalar slots must be scalar expressions (at position 15)"),
])
def test_eval_errors_point_at_the_offending_node(capsys, no_work, expression, message):
    code, out, err = run(capsys, "eval", "--n", "3", expression)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_bounds_admit_the_documented_limits():
    assert MAX_N >= 8 and MAX_EXPONENT >= 2000 and MAX_ADAMS_INDEX >= 3000
    assert MAX_K_MAX >= 2 * MAX_N
    for text in ("x[0]^%d" % MAX_EXPONENT, "x[0]^-%d" % MAX_EXPONENT,
                 "x[0]^1500 * x[0]^-500", "psi[%d](x[0])" % MAX_ADAMS_INDEX):
        parse(text, MAX_N)


@pytest.mark.parametrize("expression", [
    "(x[0] + 2*x[3] - x[7] + 5*one[4])^-2000",
    "(x[0] + x[1] + x[7])^-2000",
    # Never printed, but in full an integer of 4 million bits.
    "0*(2^2000)^2000",
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
        # 2^2000 has 603 digits, its square 1,205.
        code, out, _ = run(capsys, "eval", "--n", "3", "(1/2)^-2000")
        assert code == 0 and len(out) == 604
        code, out, err = run(capsys, "eval", "--n", "3", "(2^2000)^2")
        assert code == 2 and "the power has coefficients of more than 640 digits" in err
        sys.set_int_max_str_digits(0)
        for text in (base + "^-300", base + "^800", "(2^2000)^2"):
            code, out, _ = run(capsys, "eval", "--n", "3", text)
            assert code == 0
    finally:
        sys.set_int_max_str_digits(old)


#: N^33 has 4,301 digits but only 14,285 bits, as many as 10^4300.
N = 20092330025650624429041246983718289902852296550075011136104805914902943543087600732265513669553766436585966694146690632202915414013


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no conversion limit")
@pytest.mark.parametrize("argv,what", [
    (["--n", "2", "%d^33" % N], "the power"),
    # Each factor prints; their product, 2^16000, has 4,817 digits.
    (["--n", "2", "*".join(["2^2000"] * 8)], "the result"),
    # The loc value has 4,300 digits; its view in u has more.
    (["--n", "3", "--basis", "u", "(9*(10^2000)^2*10^299)*e[1,1]"], "the result"),
], ids=["power", "product", "u-view"])
def test_an_answer_one_digit_past_the_limit_is_the_guards_error(capsys, argv, what):
    assert 10**4300 < N**33 < 10**4301 and (N**33).bit_length() == 14285
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert run(capsys, "eval", *argv) == (
            2, "", "error: %s has coefficients of more than 4300 digits, over the limit for "
                   "integer string conversion\n" % what)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no conversion limit")
@pytest.mark.parametrize("argv,position", [
    (["eval", "--n", "2", "{long}*x[1]"], "at position 0"),
    (["eval", "--n", "2", "x[1]^{long}"], "at position 5"),
    (["eval", "--n", "2", "x[1]^-{long}"], "at position 6"),
    (["eval", "--n", "2", "psi[{long}](x[1])"], "at position 4"),
    (["eval", "--n", "2", "x[{long}]"], "at position 2"),
    (["eval", "--n", "2", "3/{long} + x[1]"], "at position 2"),
    (["adams", "{long}", "--n", "2", "x[1]"], "in k at position 0"),
    (["mul", "--n", "2", "x[1]", "2 + {long}"], "in rhs at position 4"),
], ids=["factor", "exponent", "negative-exponent", "adams-index", "atom-index", "denominator",
        "adams-verb", "mul-rhs"])
def test_a_literal_over_the_interpreter_limit_is_a_parse_error_at_its_position(
        capsys, no_work, argv, position):
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        code, out, err = run(capsys, *[a.replace("{long}", "1" * 5000) for a in argv])
        assert (code, out) == (2, "")
        assert err == ("error: integer literal of 5000 digits, over the limit 4300 for integer "
                       "string conversion (%s)\n" % position)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no conversion limit")
def test_a_literal_at_the_interpreter_limit_converts(capsys):
    # The check counts digits as Python does, leading zeros included.
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert run(capsys, "eval", "--n", "2", "0*%s + 1" % ("1" * 4300)) == (0, "1\n", "")
        assert run(capsys, "eval", "--n", "2", "0" * 4301)[0] == 2
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no conversion limit")
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_each_coordinate_is_judged_by_the_digit_guard_in_its_own_lowest_terms(capsys, flags):
    # The denominators have 2,201 and 2,195 digits, so each coordinate prints;
    # the class holds both over their product, of about 4,396 digits.
    first, second = 10**2200, 3**4600
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        code, out, err = run(capsys, "eval", "--n", "2", *flags,
                             "1/%d*one[0] + 1/%d*x[0]" % (first, second))
    finally:
        sys.set_int_max_str_digits(old)
    assert (code, err) == (0, "")
    if flags:
        assert [c["value"] for c in json.loads(out)["coeffs"]] == [
            ["1/%d" % first], ["1/%d" % second]]
    else:
        assert out == "1/%d*one[0] + 1/%d*x[0]\n" % (first, second)
        assert len(out) == 4416


@pytest.mark.parametrize("k,message", [
    ("1_0", "unexpected trailing input '_0' (in k at position 1)"),
    ("+10", "expected num (in k at position 0)"),
    ("x", "expected num (in k at position 0)"),
    ("", "expected num (in k at position 0)"),
    ("10 2", "unexpected trailing input '2' (in k at position 3)"),
])
def test_the_adams_index_is_read_by_the_integer_rule_of_psi(capsys, no_work, k, message):
    code, out, err = run(capsys, "adams", k, "--n", "2", "x[1]")
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    # psi[k] refuses the same text.
    assert run(capsys, "eval", "--n", "2", "psi[%s](x[1])" % k)[0] == 2


def test_the_adams_verb_and_psi_read_the_same_indices(capsys):
    ten = run(capsys, "adams", "10", "--n", "2", "x[1]")
    assert ten[0] == 0
    # Python reads every Unicode decimal digit, in the grammar and in int() alike.
    for k in (" 10", "010", "\uff11\uff10"):
        assert run(capsys, "adams", k, "--n", "2", "x[1]") == ten
        assert run(capsys, "eval", "--n", "2", "psi[%s](x[1])" % k) == ten
    assert run(capsys, "adams", "--n", "3", "--", "-1", "x[1") == (
        2, "", "error: %s (in k at position 0)\n" % _NEGATIVE_INDEX)


def test_each_value_carries_its_own_basis(capsys):
    # A loc value displayed in u is a u value: its text and JSON read the
    # basis and n off the value itself.
    value = cli.evaluate(parse("e[0,1]", 3), 3)
    assert value.kind == "loc"
    code, out, _ = run(capsys, "eval", "--n", "3", "--basis", "u", "--json", "e[0,1]")
    u = cli.loc.to_u_basis(value)
    assert (code, out) == (0, cli.value_to_json(u) + "\n")
    assert json.loads(out)["basis"] == "u" and json.loads(out)["n"] == 3
    code, out, _ = run(capsys, "eval", "--n", "3", "--basis", "u", "e[0,1]")
    assert (code, out) == (0, cli.format_value(u) + "\n")


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


def test_a_query_process_loads_no_verification_module_and_no_dataclasses():
    # The verification modules load on the first verify and the records are
    # plain classes.  perfbench's tracer imports verify right after the CLI,
    # and that import still loads every module.
    src = Path(cli.__file__).parents[1]
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import virtualk.cli\n"
        "query = sorted(set(sys.modules) - before)\n"
        "from virtualk import verify\n"
        "import virtualk\n"
        "exports = [virtualk.run_verify is verify.run_verify,\n"
        "           virtualk.verify_presentation.__module__]\n"
        "print(json.dumps([query, sorted(sys.modules), exports]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    query, loaded, exports = json.loads(done.stdout)
    assert "virtualk.expr" in query
    for name in ("dataclasses", "inspect", "virtualk.verify", "virtualk.presentation",
                 "virtualk.linalg"):
        assert name not in query
    modules = {"virtualk." + p.stem for p in (src / "virtualk").glob("*.py")}
    assert modules - {"virtualk.__init__"} <= set(loaded)
    assert exports == [True, "virtualk.presentation"]


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


def test_the_verb_queries_of_the_catalogue_match_their_goldens(capsys):
    # Every small mul, adams, localize and delocalize query of the query mix;
    # the verbs build their expression from their arguments, so a change in
    # how they do shows here before it shows in the benchmark.
    golden = json.loads((ROOT / "perfbench" / "golden" / "query-mix.json").read_text())
    verbs = ("mul", "adams", "localize", "delocalize")
    queries = [q for i, q in enumerate(golden["queries"]) if i % 10 and q["argv"][0] in verbs]
    assert len(queries) == 1267
    for expected in queries:
        code, out, _ = run(capsys, *expected["argv"])
        assert (code, out) == (expected["rc"], expected["stdout"]), expected["argv"]
