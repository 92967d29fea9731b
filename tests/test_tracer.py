"""The benchmark's tracer (`perfbench/tracer.py`) still fits the package.

The tracer finds each function it wraps by name and reads attributes of
the relation system and of the result, so a rename in the package would
otherwise show only as a failed traced benchmark run.  Here it is
installed around one record and one verify pass, as the benchmark's
worker calls them.
"""

import importlib.util
import os

from mcgtwist import cli
from mcgtwist.engine import build_relation_system
from mcgtwist.surface import SurfaceSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Partial instances of both ambiguity kinds, some of them kept.
SPEC = SurfaceSpec.make(5, 1, 1, 0, "pmk")


def load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_runs_a_record_and_a_verify_pass():
    tracer = load_tracer()
    system = build_relation_system(SPEC)
    assert system.partials
    originals = (cli.run_record, cli.verify_spec, cli.fault_checks)

    traced = tracer.Tracer()
    with traced:
        assert cli.run_record is not originals[0]
        record = cli.run_record(SPEC, 17, 0)
    assert record["match"]
    assert traced.counts["engine.partials_kept"] == len(system.partials)
    assert traced.counts["engine.exact_rows"] == len(system.exact)
    assert traced.counts["engine.samples"] == 17
    layers, _ = tracer.per_layer_metrics(traced)
    assert layers["engine.compute_h1.calls"] == 1

    traced = tracer.Tracer()
    with traced:
        assert cli.verify_spec(SPEC) + cli.fault_checks(SPEC) == []
    layers, _ = tracer.per_layer_metrics(traced)
    assert layers["cli.verify_spec.total_s"] > 0
    assert (cli.run_record, cli.verify_spec, cli.fault_checks) == originals
