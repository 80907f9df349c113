"""virtualk benchmark: one command that measures a workload and checks its outputs.

Usage, from the root of a source checkout (the package is imported from
``src``; nothing needs installing):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every unit of work runs in a fresh child process (``child.py``), one at a
time.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the
workload untraced and then traced and reports the per-layer metrics and the
tracing overhead.  End-to-end times are scaled by the host speed that each
child measures alongside its work (``hostspeed.py``); per-layer times are
raw.  Outputs are compared with the golden copies in
``golden/``.  Human-readable lines come first; the last stdout line is the
JSON result.  A copy of the result, with run metadata, and the trace of a
traced run are written under ``.perfbench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import RENAMED, SUITES, TARGETS  # noqa: E402
from workloads import (  # noqa: E402
    OUT_PLACEHOLDER,
    VERIFY_WORKLOADS,
    WORKLOADS,
    catalogue,
)

OUT_DIR = ".perfbench_out"
SETUP_SPAWNS = 10  # half before and half after the workload, to span its run
MIN_QUERIES = 1000  # p99 then has at least ten samples beyond it
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Children


def spawn(spec: dict) -> dict:
    """Run ``child.py`` on ``spec`` in a fresh interpreter and return its result."""
    src = os.path.abspath("src")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("child timed out after %ds: %s" % (CHILD_TIMEOUT_S, spec["mode"])) from exc
    if proc.returncode != 0:
        raise BenchError("child failed (exit %d): %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def verify_spec(workload: str, index: int, trace: bool) -> dict:
    out = os.path.join(OUT_DIR, "report-%s-%d-%d.json" % (workload, os.getpid(), index))
    argv = [out if a == OUT_PLACEHOLDER else a for a in VERIFY_WORKLOADS[workload]]
    return {"mode": "verify", "argv": argv, "trace": trace}


def run_verify_calls(workload: str, seconds: float) -> list[dict]:
    """Untraced fresh-process verify calls, as many as fit in ``seconds``
    judging by the last call, and at least one."""
    results: list[dict] = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start + results[-1]["wall_s"] <= seconds:
        results.append(spawn(verify_spec(workload, len(results), trace=False)))
    return results


# ---------------------------------------------------------------------------
# Golden outputs


def load_golden(workload: str) -> dict:
    path = os.path.join(HERE, "golden", "%s.json" % workload)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_verify(results: list[dict], golden: dict) -> tuple[int, int]:
    """(checks attempted, checks failed); a golden mismatch or an unexpected
    exit code fails every check of that call."""
    attempted = failed = 0
    for r in results:
        attempted += r["checks"]
        if "sha256" in golden:
            same = r["sha256"] == golden["sha256"] and r["stdout_matches_file"]
        else:
            same = r["summary"] == golden["summary"]
        if r["rc"] != golden["rc"] or not same:
            failed += r["checks"]
        else:
            failed += r["failures"]
    return attempted, failed


def check_queries(sent: list[list], golden: dict) -> tuple[int, int]:
    """(queries sent, queries whose stdout or exit code differs from golden)."""
    expected = golden["queries"]
    failed = sum(
        1 for index, _, rc, stdout in sent
        if rc != expected[index]["rc"] or stdout != expected[index]["stdout"]
    )
    return len(sent), failed


def check_catalogue(golden: dict) -> None:
    argvs = [list(q.argv) for q in catalogue()]
    if argvs != [q["argv"] for q in golden["queries"]]:
        raise BenchError("query catalogue differs from golden/query-mix.json; re-record it")


# ---------------------------------------------------------------------------
# Metrics


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered)) - 1, 0)]


def large_share(sent: list[list]) -> float:
    """Share of the sent queries that carry a large exponent or Adams index."""
    queries = catalogue()
    return sum(queries[index].large for index, *_ in sent) / len(sent)


def _timings(latencies: list[float], setup: list[float], per_query: bool) -> dict:
    # query-mix makes no verify call; its unit of work is 1000 queries back to back.
    verify_s = 1000 * statistics.fmean(latencies) if per_query else statistics.median(latencies)
    return {
        "verify_s": (verify_s, "s"),
        "query_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "query_p99_ms": (1000 * percentile(latencies, 0.99), "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }


def end_to_end(workload: str, seconds: float, seed: int, golden: dict) -> tuple[dict, int, int, dict]:
    """Times are scaled by each child's measured host speed (see hostspeed.py);
    the unscaled values go into the run's metadata."""
    imports = [spawn({"mode": "import"}) for _ in range(SETUP_SPAWNS // 2)]
    info: dict = {}
    if workload in VERIFY_WORKLOADS:
        calls = run_verify_calls(workload, seconds)
        attempted, failed = check_verify(calls, golden)
        samples = [(c["wall_s"], c["speed"]) for c in calls]
        rss_kb = max(c["maxrss_kb"] for c in calls)
    else:
        result = spawn({"mode": "queries", "seed": seed, "seconds": seconds,
                        "min_queries": MIN_QUERIES})
        sent = result["sent"]
        attempted, failed = check_queries(sent, golden)
        samples = [(took, result["speed"]) for _, took, _, _ in sent]
        rss_kb = result["maxrss_kb"]
        info["large_share"] = large_share(sent)
    imports += [spawn({"mode": "import"}) for _ in range(SETUP_SPAWNS - len(imports))]
    per_query = workload not in VERIFY_WORKLOADS
    metrics = _timings([t * f for t, f in samples],
                       [r["import_s"] * r["import_speed"] for r in imports], per_query)
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    raw = _timings([t for t, _ in samples], [r["import_s"] for r in imports], per_query)
    info["samples"] = len(samples)
    info["host_speed"] = statistics.median(f for _, f in samples)
    info["unscaled"] = {name: value for name, (value, _) in raw.items()}
    return metrics, attempted, failed, info


def _layer_metrics(traces: list[dict], sides_emitted: int | None) -> dict:
    stats: dict[str, list[int]] = {}
    suite_checks: dict[str, int] = {}
    zero = irrational = 0
    for t in traces:
        for name, values in t["stats"].items():
            acc = stats.setdefault(name, [0, 0, 0])
            for i, v in enumerate(values):
                acc[i] += v
        for suite, n in t["suite_checks"].items():
            suite_checks[suite] = suite_checks.get(suite, 0) + n
        zero += t["mul_zero_operand"]
        irrational += t["mul_irrational"]
    out: dict = {}
    for module, attrs in TARGETS.items():
        for attr in attrs:
            key = "%s.%s" % (module, attr)
            name = RENAMED.get(key, key)
            calls, self_ns, total_ns = stats.get(name, [0, 0, 0])
            if name == "verify.report_emit":
                out["verify.report_emit_s"] = (total_ns / 1e9, "s")
            elif name == "cli.main":
                out["cli.main.self_s"] = (self_ns / 1e9, "s")
            elif name + ".calls" not in out:
                out[name + ".calls"] = (calls, "count")
                out[name + ".self_s"] = (self_ns / 1e9, "s")
    muls = stats.get("cyclotomic.Cyc.mul", [0])[0]
    out["cyclotomic.Cyc.mul.zero_operand_share"] = (zero / muls if muls else 0.0, "ratio")
    out["cyclotomic.Cyc.mul.irrational_share"] = (irrational / muls if muls else 0.0, "ratio")
    for suite in SUITES:
        out["verify.%s.s" % suite] = (stats.get("verify." + suite, [0, 0, 0])[2] / 1e9, "s")
        out["verify.%s.checks" % suite] = (suite_checks.get(suite, 0), "count")
    rendered = stats.get("expr.format_value", [0])[0]
    # Query output prints every value it renders; verify emits check sides.
    used = rendered if sides_emitted is None else sides_emitted
    out["verify.render_used_ratio"] = (used / rendered if rendered else 1.0, "ratio")
    return out


def per_layer(workload: str, seconds: float, seed: int, golden: dict) -> tuple[dict, int, int, dict]:
    """Run a fixed amount of work untraced, then the same work traced.

    The per-layer metrics come from the traced run, and the difference of the
    two wall times is the tracing overhead.  The work is one verify call or
    ``MIN_QUERIES`` queries whatever ``seconds`` says, so that the call counts
    repeat exactly for a seed.  Outputs of both runs are checked.
    """
    if workload in VERIFY_WORKLOADS:
        plain = [spawn(verify_spec(workload, 0, trace=False))]
        traced = [spawn(verify_spec(workload, 1, trace=True))]
        attempted, failed = check_verify(plain + traced, golden)
        plain_s = sum(c["wall_s"] for c in plain)
        traced_s = sum(c["wall_s"] for c in traced)
        traces = [c["trace"] for c in traced]
        sides_emitted = sum(c["sides_emitted"] for c in traced)
    else:
        plain = spawn({"mode": "queries", "seed": seed, "count": MIN_QUERIES})
        traced = spawn({"mode": "queries", "seed": seed, "count": MIN_QUERIES, "trace": True})
        attempted, failed = check_queries(plain["sent"] + traced["sent"], golden)
        plain_s, traced_s = plain["wall_s"], traced["wall_s"]
        traces = [traced["trace"]]
        sides_emitted = None
    metrics = _layer_metrics(traces, sides_emitted)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    info = {"untraced_s": plain_s, "traced_s": traced_s,
            "spans": [t["spans"] for t in traces]}
    if workload not in VERIFY_WORKLOADS:
        info["large_share"] = large_share(plain["sent"])
    return metrics, attempted, failed, info


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(".git", ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join("src", "virtualk", "cli.py")):
            raise BenchError("run from the root of a virtualk checkout (src/virtualk missing)")
        golden = load_golden(args.workload)
        if args.workload not in VERIFY_WORKLOADS:
            check_catalogue(golden)
        os.makedirs(OUT_DIR, exist_ok=True)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, info = measure(args.workload, args.seconds, args.seed, golden)
    except (BenchError, OSError, ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    spans = info.pop("spans", None)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), **info,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".result.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, **result}, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": spans}, fh)
    for key, value in meta.items():
        print("# %s: %s" % (key, value))
    print("fail_ratio %.6g (%d failed of %d attempted)" % (failed / attempted, failed, attempted))
    for name, (value, unit) in metrics.items():
        print("%s %r %s" % (name, value, unit))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
