"""Byte-identity guards: the canonical verify report and the README's CLI outputs."""

import os
import re
import shlex

import pytest

import virtualk.virtual_ring as vr
from conftest import perturbed_euler
import record_report_manifest as recorder
from virtualk.cli import main
from virtualk.verify import Check

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


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


def _pinned_chunks(recording, keys: list[str]) -> list[dict]:
    """The recorded entries of ``keys``, held to the manifest's."""
    pinned = recorder.load()["entries"]
    recorder.assert_unmoved({k: recording.entries[k] for k in keys}, {k: pinned[k] for k in keys})
    return [recording.entries[k] for k in keys]


def test_canonical_report_bytes(report_recording):
    # The chunks of run_verify(2, 4) over these five suites; a sub-report's
    # chunks are the full report's, since each (suite, n) seeds its own RNG.
    suites = ("product-oracle", "adams-oracle", "psi-ring", "line-elements", "span")
    _pinned_chunks(report_recording, [recorder.key(s, n) for s in suites for n in (2, 3, 4)])


def test_canonical_report_bytes_all_suites_n5(report_recording):
    # run_verify(5, 5) over all suites: 5,989 checks, dense irrational sides.
    keys = sorted(k for k in report_recording.entries if k.endswith("/n=5"))
    assert len(keys) == 7
    entries = _pinned_chunks(report_recording, keys)
    assert sum(e["checks"] for e in entries) == 5989


def test_report_manifest(report_recording):
    # Any change to a check id, a status or a rendered side moves its entry.
    pinned = recorder.load()
    recorder.assert_unmoved(report_recording.entries, pinned["entries"])
    assert report_recording.report_sha256 == pinned["report_sha256"]


def test_a_perturbed_euler_case_names_the_chunks_it_moves(monkeypatch):
    monkeypatch.setattr(vr, "euler_factor", perturbed_euler)
    entries = recorder.record(3, 3).entries
    pinned = {k: v for k, v in recorder.load()["entries"].items() if k.endswith("/n=3")}
    keys = recorder.moved(entries, pinned)
    assert {"product-oracle/n=3", "adams-oracle/n=3"} <= set(keys) < set(pinned)
    with pytest.raises(AssertionError, match=re.escape("report chunks moved: " + ", ".join(keys))):
        recorder.assert_unmoved(entries, pinned)


def test_the_recorder_rewrites_the_manifest_and_refuses_while_a_check_fails(
        monkeypatch, tmp_path, report_recording):
    with open(recorder.MANIFEST, encoding="utf-8") as fh:
        committed = fh.read()
    out = tmp_path / "golden" / "report_manifest.json"
    monkeypatch.setattr(recorder, "MANIFEST", str(out))
    monkeypatch.setattr(recorder, "record", lambda: report_recording)
    assert recorder.main() == 0 and out.read_text(encoding="utf-8") == committed
    out.unlink()
    failing = report_recording._replace(failures=[Check("span/n=2/rank", "fail", "1", "2")])
    monkeypatch.setattr(recorder, "record", lambda: failing)
    assert recorder.main() == 1 and not out.exists()


EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv,expected", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_cli_output(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_readme_examples_found():
    verbs = sorted({argv[0] for argv, _ in EXAMPLES})
    assert verbs == sorted(VERBS)
