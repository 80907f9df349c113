"""One fresh benchmark process: import virtualk, run one unit of work, report.

Run as ``python3 perfbench/child.py '<spec json>'`` with ``src`` on
``PYTHONPATH``; ``run.py`` is the only caller.  The spec's ``mode`` is:

- ``import``: time ``import virtualk.cli`` and exit;
- ``verify``: one ``cli.main`` call with a verify argv, stdout captured;
- ``queries``: the query-mix closed loop, one client calling ``cli.main``
  in-process, either until ``seconds`` have passed and at least
  ``min_queries`` were sent, or for exactly ``count`` queries.

Untraced children sample the host speed while they work (``hostspeed``):
between queries, or from a timer signal during a verify call.  They report
it as ``speed``; the times they report exclude the sampling.  With
``trace`` set, spans are installed after the import instead, and times are
raw.  The last stdout line is a JSON object with the measurements and the
captured outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from hostspeed import SAMPLE_EVERY_S, HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import catalogue, iter_query_order  # noqa: E402

IMPORT_CALIBRATION_SAMPLES = 5


def _call(cli, argv: list[str], speed: HostSpeed | None = None) -> tuple[float, int, str]:
    """(seconds, exit code, stdout) of one ``cli.main`` call; the time spent
    in ``speed`` samples during the call is not counted."""
    out = io.StringIO()
    sampling = speed.spent if speed else 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        rc = cli.main(argv)
        took = time.perf_counter() - start
    if speed:
        took -= speed.spent - sampling
    return took, rc, out.getvalue()


def _verify(cli, spec: dict, speed: HostSpeed | None) -> dict:
    argv = list(spec["argv"])
    out_path = None
    if "--out" in argv:
        out_path = argv[argv.index("--out") + 1]
    took, rc, stdout = _call(cli, argv, speed)
    doc = {"wall_s": took, "rc": rc}
    if "--json" in argv:
        with open(out_path, "rb") as fh:
            data = fh.read()
        os.remove(out_path)
        summary = json.loads(data)["summary"]
        doc.update(
            sha256=hashlib.sha256(data).hexdigest(),
            stdout_matches_file=stdout.encode() == data,
            checks=summary["checks"],
            failures=summary["failures"],
            sides_emitted=2 * summary["checks"],
        )
    else:
        lines = stdout.rstrip("\n").split("\n")
        total = lines[-1]  # "total: C checks, F failures (T s)"
        words = total.split()
        doc.update(
            summary=lines[:-1] + [total[: total.index(" (")]],
            checks=int(words[1]),
            failures=int(words[3]),
            sides_emitted=sum(1 for line in lines if line.lstrip().startswith(("lhs:", "rhs:"))),
        )
    return doc


def _queries(cli, spec: dict, speed: HostSpeed | None) -> dict:
    queries = catalogue()
    order = iter_query_order(spec["seed"], queries)
    sent = []
    start = sampled = time.perf_counter()
    while True:
        if speed and time.perf_counter() - sampled >= SAMPLE_EVERY_S:
            speed.sample()  # between queries, so no query pays for it
            sampled = time.perf_counter()
        if "count" in spec:
            if len(sent) >= spec["count"]:
                break
        elif len(sent) >= spec["min_queries"] and time.perf_counter() - start >= spec["seconds"]:
            break
        index = next(order)
        took, rc, stdout = _call(cli, list(queries[index].argv))
        sent.append([index, took, rc, stdout])
    return {"wall_s": time.perf_counter() - start, "sent": sent}


def main(spec: dict) -> dict:
    import_speed = HostSpeed()
    for _ in range(IMPORT_CALIBRATION_SAMPLES):
        import_speed.sample()
    start = time.perf_counter()
    import virtualk.cli as cli

    result = {"import_s": time.perf_counter() - start, "import_speed": import_speed.factor()}
    if spec["mode"] == "import":
        return result
    tracer = speed = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
    else:
        speed = HostSpeed()
    if spec["mode"] == "verify":
        with speed or contextlib.nullcontext():
            result.update(_verify(cli, spec, speed))
    else:
        result.update(_queries(cli, spec, speed))
    if speed:
        result["speed"] = speed.factor()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.to_json()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
