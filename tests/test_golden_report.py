"""Byte-identity guards: the canonical verify report and the README's CLI outputs."""

import hashlib
import os
import re
import shlex

import pytest

from virtualk.cli import main
from virtualk.verify import run_verify

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

#: SHA-256 of the canonical JSON reports below; any change to a check id, a
#: status or a rendered side moves them.
REPORT_SHA256 = "c4823430bd7a77e29e682d20e11731c0b2924e2f5f5586479436925067ed49cc"
#: run_verify(5, 5) over all suites: 5,989 checks, dense irrational sides.
REPORT_N5_SHA256 = "8c9c131cd89b1149914957e0b9d533e3b279a7f7e49291538a44390729e6bde9"


#: The CLI verbs whose README examples are run; verify's are not.
VERBS = ("eval", "mul", "adams", "localize", "delocalize", "line")


def _readme_examples() -> list[tuple[list[str], str]]:
    """README "Command line" lines whose trailing comment is the printed output."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        m = re.match(r"virtualk (.*?)\s+#\s*(.*)$", line)
        if m and m.group(1).split()[0] in VERBS:
            out.append((shlex.split(m.group(1)), m.group(2)))
    return out


def test_canonical_report_bytes():
    report = run_verify(2, 4, ("product-oracle", "adams-oracle", "psi-ring",
                               "line-elements", "span"))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == REPORT_SHA256


def test_canonical_report_bytes_all_suites_n5():
    report = run_verify(5, 5)
    assert len(report.checks) == 5989
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == REPORT_N5_SHA256


EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv,expected", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_cli_output(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_readme_examples_found():
    verbs = sorted({argv[0] for argv, _ in EXAMPLES})
    assert verbs == sorted(VERBS)
