"""The golden manifest of the canonical verify report, and its recorder.

``tests/golden/report_manifest.json`` holds one entry per (suite, n) of
``virtualk verify --n-min 2 --n-max 8 --json``: the number of checks, the
number of failures and the SHA-256 of that (n, suite) chunk as
``Report.json_pieces`` encodes it.  It also holds the SHA-256 of the whole
stdout, so the encoder of the report's tail is pinned too.

``record`` is the one producer.  It streams ``Report.run`` through
``Report.json_pieces`` and hashes every piece as it comes, so it keeps no
passing check.  Tier-1 runs it once per session and compares the result with
the manifest; a mismatch names the ``suite/n=N`` keys that moved.

Run this file to rewrite the manifest after a deliberate change of report
bytes, then review the ``git diff`` of the entries that moved:

    PYTHONPATH=src python tests/record_report_manifest.py

It refuses to write while any check fails.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
from collections import namedtuple

from virtualk.verify import Report, select_suites

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                        "report_manifest.json")
N_MIN, N_MAX = 2, 8


#: The manifest entries of one run, its whole-report digest and its failing checks.
Recording = namedtuple("Recording", "entries report_sha256 failures")


def key(suite: str, n: int) -> str:
    return "%s/n=%d" % (suite, n)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(n_min: int = N_MIN, n_max: int = N_MAX) -> Recording:
    """Run every suite over n_min..n_max and hash the report chunk by chunk.

    ``report_sha256`` is the digest of the CLI's ``--json`` stdout for the
    same range: the joined pieces and a newline.
    """
    report = Report(n_min, n_max, None, select_suites(("all",)), checks=None)
    entries: dict[str, dict] = {}
    pending: list[dict] = []

    def chunks():
        # Report.run yields one list per (n, suite), suites inner.
        units = itertools.product(range(n_min, n_max + 1), report.suites)
        for (n, suite), checks in zip(units, report.run(), strict=True):
            entry = entries[key(suite, n)] = {
                "checks": len(checks), "failures": sum(not c.passed for c in checks),
                "sha256": _sha256("")}
            if checks:  # an empty chunk has no piece
                pending.append(entry)
            yield checks

    whole = hashlib.sha256()
    for piece in report.json_pieces(chunks()):
        whole.update(piece.encode())
        if pending:
            pending.pop()["sha256"] = _sha256(piece.removeprefix(", "))
    whole.update(b"\n")
    return Recording(entries, whole.hexdigest(), report.failures)


def load() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def moved(entries: dict[str, dict], pinned: dict[str, dict]) -> list[str]:
    """The sorted keys whose entry differs from the pinned one; a key on one
    side only has moved too."""
    return sorted(k for k in entries.keys() | pinned.keys() if entries.get(k) != pinned.get(k))


def assert_unmoved(entries: dict[str, dict], pinned: dict[str, dict]) -> None:
    keys = moved(entries, pinned)
    if keys:
        raise AssertionError("report chunks moved: %s" % ", ".join(keys))


def dumps(recording: Recording) -> str:
    """The manifest text: sorted keys, one entry per line."""
    lines = ["  %s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
             for k, v in sorted(recording.entries.items())]
    return '{"entries": {\n%s\n}, "report_sha256": %s}\n' % (
        ",\n".join(lines), json.dumps(recording.report_sha256))


def main() -> int:
    recording = record()
    if recording.failures:
        for c in recording.failures[:5]:
            print("FAIL %s\n  lhs=%s\n  rhs=%s" % (c.id, c.lhs, c.rhs), file=sys.stderr)
        print("%d checks fail; the manifest was not written" % len(recording.failures),
              file=sys.stderr)
        return 1
    os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        fh.write(dumps(recording))
    print("wrote %d entries to %s" % (len(recording.entries), os.path.relpath(MANIFEST)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
