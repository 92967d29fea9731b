"""Outside-in span tracing of the mcgtwist layers.

`Tracer.install` replaces each traced function with a wrapper in every
`mcgtwist` module namespace that holds it, because callers import the
functions by name (`engine.snf_factors`, `intlin.lattice.echelon_insert`)
and a wrapper on the defining module alone would miss those calls.  The
package source is not modified; `uninstall` puts the originals back.

A span is (name, start, end, parent).  Spans are kept in flat arrays in
memory and written out once, after the traced round.  A span's self time
is its duration minus the durations of its direct children; calls are
strictly nested because the benchmark is single-threaded.
"""

import gzip
import json
import sys
import time
from array import array

# (span name, module that defines the object, attribute name, the
# statistics reported as per-layer metrics)
SPANS = (
    ("surface.build_representation", "mcgtwist.surface", "build_representation",
     ("calls", "self_s")),
    ("chains.ChainSpace", "mcgtwist.chains", "ChainSpace", ("calls", "self_s")),
    ("chains.cycle_lattice", "mcgtwist.chains", "cycle_lattice",
     ("calls", "total_s")),
    ("chains.kernel_generator_list", "mcgtwist.chains", "kernel_generator_list",
     ("calls", "self_s")),
    ("chains.rewrite_relation_all", "mcgtwist.chains", "rewrite_relation_all",
     ("calls", "self_s")),
    ("catalog.build_catalog", "mcgtwist.catalog", "build_catalog",
     ("calls", "self_s")),
    ("catalog.verify_catalog", "mcgtwist.catalog", "verify_catalog",
     ("calls", "self_s")),
    ("catalog.partial_exact_part", "mcgtwist.catalog", "partial_exact_part",
     ("calls", "self_s")),
    ("catalog.partial_target_boundary", "mcgtwist.catalog",
     "partial_target_boundary", ("calls", "self_s")),
    ("catalog.pmplus_boundary_solver", "mcgtwist.catalog",
     "pmplus_boundary_solver", ("calls", "total_s")),
    ("engine.build_relation_system", "mcgtwist.engine", "build_relation_system",
     ("calls", "total_s", "self_s")),
    ("engine.compute_h1", "mcgtwist.engine", "compute_h1",
     ("calls", "total_s", "self_s")),
    ("intlin.snf_factors", "mcgtwist.intlin", "snf_factors", ("calls", "self_s")),
    ("intlin.echelon_insert", "mcgtwist.intlin", "echelon_insert",
     ("calls", "self_s")),
    ("intlin.echelon_reduce", "mcgtwist.intlin", "echelon_reduce",
     ("calls", "self_s")),
    ("certify.lower_bound", "mcgtwist.certify", "lower_bound",
     ("calls", "total_s")),
    ("certify.descent_check", "mcgtwist.certify", "descent_check",
     ("calls", "self_s")),
    ("certify.oracle", "mcgtwist.certify", "oracle", ("calls", "self_s")),
    ("cli.run_record", "mcgtwist.cli", "run_record", ("total_s",)),
    ("cli.verify_spec", "mcgtwist.cli", "verify_spec", ("total_s",)),
    ("cli.fault_checks", "mcgtwist.cli", "fault_checks", ("total_s",)),
)

# Time spent by the tracer itself measuring arguments and results.  It is
# recorded as a child span so that it is not charged to the caller's self
# time, and it is reported as part of the overhead.
HOOK = "trace.hook"

# Counters filled by the hooks over the traced pass: max_bits is a
# maximum, the others are sums.
COUNTERS = (
    "intlin.snf_factors.input_nnz",
    "intlin.snf_factors.max_bits",
    "engine.chain_dim",
    "engine.lattice_rank",
    "engine.exact_rows",
    "engine.partials_seen",
    "engine.partials_kept",
    "engine.samples",
)


def _snf_input(counts, rows):
    counts["intlin.snf_factors.input_nnz"] += sum(len(r) for r in rows)
    bits = max(
        (abs(v).bit_length() for r in rows for v in r.values()), default=0
    )
    if bits > counts["intlin.snf_factors.max_bits"]:
        counts["intlin.snf_factors.max_bits"] = bits


def _system_sizes(counts, system):
    counts["engine.chain_dim"] += system.space.dim
    counts["engine.lattice_rank"] += system.rank
    counts["engine.exact_rows"] += len(system.exact_coords)
    # One partial instance per k1 entry and one per coefficient xi for
    # every slide-conjugation entry, as build_relation_system visits them.
    counts["engine.partials_seen"] += sum(
        1 if entry.ambiguity == "k1" else system.space.d
        for entry in system.catalog
        if entry.kind == "partial"
    )
    counts["engine.partials_kept"] += len(system.partials)


def _samples(counts, result):
    counts["engine.samples"] += result.sampling_report.samples


# span name -> (hook on the first argument, hook on the result)
HOOKS = {
    "intlin.snf_factors": (_snf_input, None),
    "engine.build_relation_system": (None, _system_sizes),
    "engine.compute_h1": (None, _samples),
}


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._patched = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span(self, nid, fn):
        """`fn` wrapped to record one span named `nid` per call."""
        stack = self._stack
        span_name, start, end, parent = (
            self.span_name, self.start, self.end, self.parent)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            stack.append(idx)
            start.append(clock())
            end.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def wrap(self, name, fn):
        """The traced stand-in for `fn`, with its HOOKS if it has any."""
        traced = self._span(self._name_id(name), fn)
        before, after = HOOKS.get(name, (None, None))
        if not (before or after):
            return traced
        hook_id = self._name_id(HOOK)
        counts = self.counts
        before = before and self._span(hook_id, before)
        after = after and self._span(hook_id, after)

        def hooked(*args, **kwargs):
            if before:
                before(counts, args[0])
            result = traced(*args, **kwargs)
            if after:
                after(counts, result)
            return result

        return hooked

    def install(self):
        """Wrap every function in SPANS wherever a mcgtwist module holds it."""
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "mcgtwist" or name.startswith("mcgtwist."))
        ]
        for span, modname, attr, _ in SPANS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """Per-name calls, total and self time, and the insert time spent
        in the quotient: under compute_h1 but outside build_relation_system."""
        n = len(self.start)
        names = self.names
        child = array("d", bytes(8 * n))
        in_quotient = bytearray(n)
        compute = self._name_id("engine.compute_h1")
        build = self._name_id("engine.build_relation_system")
        insert = self._name_id("intlin.echelon_insert")
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
        quotient_s = 0.0
        for idx in range(n):
            dur = self.end[idx] - self.start[idx]
            p = self.parent[idx]
            nid = self.span_name[idx]
            if nid == compute:
                in_quotient[idx] = 1
            elif nid != build and p >= 0:
                in_quotient[idx] = in_quotient[p]
            if nid == insert and in_quotient[idx]:
                quotient_s += dur
            entry = stats[names[nid]]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[idx]
        return stats, quotient_s

    def write(self, path):
        """Write every span as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for idx in range(len(self.start)):
                out.write("%d %.9f %.9f %d\n" % (
                    self.span_name[idx], self.start[idx], self.end[idx],
                    self.parent[idx]))


def per_layer_metrics(tracer):
    """The per-layer metric values of one traced round, by metric name."""
    stats, quotient_s = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for span, _, _, fields in SPANS:
        entry = stats.get(span, empty)
        for field in fields:
            out["%s.%s" % (span, field)] = entry[field]
    out["intlin.echelon_insert.quotient_s"] = quotient_s
    out.update(tracer.counts)
    seen = tracer.counts["engine.partials_seen"]
    out["engine.partial_keep_ratio"] = (
        tracer.counts["engine.partials_kept"] / seen if seen else 0.0)
    out["trace.spans"] = len(tracer.start)
    out["trace.hook_s"] = stats.get(HOOK, empty)["total_s"]
    return out, stats
