"""Tests of the benchmark itself: input generation, golden checks, tracing."""

from __future__ import annotations

import copy
import itertools
import json
import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import run  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from workloads import LARGE_EVERY, catalogue, iter_query_order  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_query_generator_is_deterministic_per_seed():
    assert catalogue() == catalogue()
    queries = catalogue()
    first = list(itertools.islice(iter_query_order(7, queries), 3000))
    assert first == list(itertools.islice(iter_query_order(7, queries), 3000))
    assert first != list(itertools.islice(iter_query_order(8, queries), 3000))
    for start in range(0, len(first), LARGE_EVERY):
        assert sum(queries[i].large for i in first[start:start + LARGE_EVERY]) == 1


def test_host_speed_samples_from_a_timer_and_tracks_its_own_time():
    with HostSpeed() as speed:
        end = time.perf_counter() + 0.8
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 4  # one on entry, one on exit, timer samples between
    assert speed.spent == pytest.approx(sum(speed.samples))
    assert speed.factor() > 0


def test_golden_covers_the_catalogue():
    run.check_catalogue(run.load_golden("query-mix"))


def test_planted_wrong_golden_output_raises_fail_ratio():
    import virtualk.cli as cli

    golden = run.load_golden("query-mix")
    sent = []
    for index in range(0, 40, 3):
        took, rc, stdout = child._call(cli, golden["queries"][index]["argv"])
        sent.append([index, took, rc, stdout])
    assert run.check_queries(sent, golden) == (len(sent), 0)
    planted = copy.deepcopy(golden)
    planted["queries"][3]["stdout"] += "0"
    planted["queries"][6]["rc"] = 1
    assert run.check_queries(sent, planted) == (len(sent), 2)

    text = run.load_golden("verify-all-text")
    result = {"rc": 0, "checks": text["checks"], "failures": 0, "summary": text["summary"]}
    assert run.check_verify([result], text) == (text["checks"], 0)
    planted = copy.deepcopy(text)
    planted["summary"][0] = planted["summary"][0].replace("PASS", "FAIL")
    assert run.check_verify([result], planted) == (text["checks"],) * 2

    report = run.load_golden("verify-oracle-json")
    result = {"rc": 0, "checks": report["checks"], "failures": 0,
              "sha256": report["sha256"], "stdout_matches_file": True}
    assert run.check_verify([result], report) == (report["checks"], 0)
    planted = dict(report, sha256="0" * 64)
    assert run.check_verify([result], planted) == (report["checks"],) * 2


def test_every_layer_function_is_called_by_a_traced_run():
    # Small stand-ins for the three workloads: verify over n=2..3 covers what
    # the two verify workloads reach, and 100 queries include ten large ones.
    os.makedirs(run.OUT_DIR, exist_ok=True)
    small_verify = run.spawn({"mode": "verify", "trace": True,
                              "argv": ["verify", "--n-min", "2", "--n-max", "3"]})
    queries = run.spawn({"mode": "queries", "seed": 1, "count": 100, "trace": True})
    assert small_verify["rc"] == 0
    metrics = run._layer_metrics([small_verify["trace"], queries["trace"]], None)
    calls = [name for name in metrics if name.endswith((".calls", ".checks"))]
    assert len(calls) == 37
    assert [name for name in calls if metrics[name][0] == 0] == []
    assert metrics["cli.main.self_s"][0] > 0
    assert metrics["verify.report_emit_s"][0] > 0


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    layer = dict(run._layer_metrics([], None), **{"trace.overhead_s": (0.0, "s")})
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, (_, unit) in layer.items()]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
