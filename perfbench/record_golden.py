"""Record the golden outputs that the benchmark checks, from the current code.

Run from the repository root:

    python3 perfbench/record_golden.py

Re-record only when a change to the program's output is intended, and say
why in the change description; the benchmark's correctness check is only as
good as these files.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.abspath("src"))

import child  # noqa: E402
import run  # noqa: E402
from workloads import CATALOGUE_SEED, VERIFY_WORKLOADS, catalogue  # noqa: E402


def _write(workload: str, doc: dict) -> None:
    """JSON with one line per list item, so that a re-recording diffs by query."""
    path = os.path.join(run.HERE, "golden", "%s.json" % workload)
    fields = []
    for key, value in sorted(doc.items()):
        if isinstance(value, list) and value and isinstance(value[0], dict):
            text = "[\n  " + ",\n  ".join(json.dumps(v, sort_keys=True) for v in value) + "\n ]"
        else:
            text = json.dumps(value)
        fields.append(" %s: %s" % (json.dumps(key), text))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(fields) + "\n}\n")
    print("wrote", path)


def main() -> None:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for workload in VERIFY_WORKLOADS:
        r = run.spawn(run.verify_spec(workload, 0, trace=False))
        doc = {"argv": list(VERIFY_WORKLOADS[workload]), "rc": r["rc"], "checks": r["checks"]}
        if "sha256" in r:
            doc["sha256"] = r["sha256"]
        else:
            doc["summary"] = r["summary"]
        _write(workload, doc)
    import virtualk.cli as cli

    queries = []
    for q in catalogue():
        _, rc, stdout = child._call(cli, list(q.argv))
        queries.append({"argv": list(q.argv), "rc": rc, "stdout": stdout})
    _write("query-mix", {"catalogue_seed": CATALOGUE_SEED, "queries": queries})


if __name__ == "__main__":
    main()
