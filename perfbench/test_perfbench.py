"""Self-tests of the benchmark: tracing coverage and the correctness check.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from mcgtwist import SurfaceSpec, cli  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from tracer import SPANS, Tracer, per_layer_metrics  # noqa: E402

# One small spec per flavor, each with partial relations of both kinds
# where the flavor has them.
SMALL = [
    SurfaceSpec.make(5, 1, 1, 0, "pmk"),
    SurfaceSpec.make(5, 0, 1, 1, "pm+"),
    SurfaceSpec.make(5, 0, 2, flavor="m"),
]


def traced_rounds(reference):
    """Both kinds of round over SMALL under one tracer."""
    outputs = {}
    tracer = Tracer()
    with tracer:
        for workload in ("grid", "verify"):
            outputs[workload] = worker.run_round(
                cli, workload, SMALL, 0, reference)
    return tracer, outputs


@pytest.fixture(scope="module")
def reference():
    return worker.load_reference()


def test_every_span_is_hit(reference):
    tracer, outputs = traced_rounds(reference)
    stats, quotient_s = tracer.summary()
    missed = [name for name, _, _, _ in SPANS
              if stats.get(name, {"calls": 0})["calls"] == 0]
    assert not missed, "spans never entered: %s" % missed
    assert quotient_s > 0
    layers, _ = per_layer_metrics(tracer)
    for name in ("engine.partials_seen", "engine.partials_kept",
                 "engine.samples", "intlin.snf_factors.input_nnz"):
        assert layers[name] > 0, name
    for wall, times, failures in outputs.values():
        assert not failures
        assert 0 < sum(times) <= wall


def test_tracing_is_uninstalled_afterwards(reference):
    traced_rounds(reference)
    from mcgtwist import engine
    from mcgtwist.intlin import lattice
    assert engine.snf_factors.__module__.startswith("mcgtwist.")
    assert lattice.echelon_insert.__module__.startswith("mcgtwist.")


def test_traced_records_equal_untraced():
    plain = [worker.comparable_record(cli, cli.run_record(s, 17, 3))
             for s in SMALL]
    with Tracer():
        traced = [worker.comparable_record(cli, cli.run_record(s, 17, 3))
                  for s in SMALL]
    assert traced == plain


def test_records_match_the_reference(reference):
    _, _, failures = worker.run_round(cli, "grid", SMALL, 7, reference)
    assert failures == []


def test_altered_reference_gives_error_rate(reference):
    spec = SMALL[0]
    altered = dict(reference)
    rec = json.loads(altered[worker.spec_key(spec)])
    rec["generators"] = rec["generators"][::-1]
    altered[worker.spec_key(spec)] = json.dumps(rec)
    result = worker.measure(cli, "grid", SMALL, 0, 2, False, altered)
    assert result["attempted"] == 2 * len(SMALL)
    assert result["failed"] == 2
    assert "reference" in result["failures"][0]


def test_end_to_end_metrics_from_raw_timings():
    raw = {"times": [[0.1, 0.3], [0.2, 0.5], [0.3, 0.7]], "peak_rss_mb": 50.0,
           "specs": ["a", "b"]}
    metrics = run.end_to_end(raw, [0.2, 0.1, 0.3])
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["wall_s"] == pytest.approx(0.2 + 0.5)
    assert metrics["spec_p50_ms"] == pytest.approx(350.0)
    assert metrics["spec_p90_ms"] == pytest.approx(600.0)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert run.tail(raw) == pytest.approx((650.0, "b", 500.0))


def test_benchmark_json_names_every_metric():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS)
    tracer, _ = traced_rounds({})
    layers, _ = per_layer_metrics(tracer)
    layers.update(dict.fromkeys(
        ("trace_overhead", "trace.overhead_s", "trace.wrapper_us")))
    assert {m["name"] for m in bench["per_layer"]} == set(layers)
    for m in bench["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"]), m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed",
         "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_trace_mode_measures_overhead_and_layers(reference):
    result = worker.measure(cli, "grid", SMALL[:1], 0, 1, True, reference)
    assert result["failed"] == 0 and result["attempted"] == 2
    layers = result["layers"]
    assert layers["trace_overhead"] > 0 and layers["trace.wrapper_us"] > 0
    assert layers["intlin.snf_factors.calls"] > 0
