"""Command-line front end.

Three subcommands: `compute` runs one spec and reports the group,
`table` sweeps a grid of specs, `verify` runs the internal consistency
suite.  Exit codes: 0 success/match, 2 invalid input (spec, flags or
relations file), 3 unstable sampling, 4 computed group differs from the
closed form, 5 failed verification, 6 out of memory (a `MemoryError`),
after the one stderr line "out of memory", 130 (128 + SIGINT)
interrupted, after the one stderr line "interrupted", 141 (128 +
SIGPIPE) standard output closed by its reader before everything was
written, or already closed when the program started (then nothing is
run); both 141 cases leave stderr empty.  Any other unexpected
exception is a bug: it keeps its traceback, and Python exits 1.

`argparse` is imported by `build_parser` and `csv` by `table --format
csv`, so importing this module loads neither.
"""

import json
import os
import sys

from .catalog import parse_relations
from .certify import lower_bound, oracle
from .engine import compute_h1
from .errors import (
    RelationOutsideKernel,
    SpecInvalid,
    UnknownDerived,
    UnknownLetter,
    UnstableSampling,
)
from .intlin import AbelianInvariants
from .surface import SurfaceSpec, spec_grid
from .verify import fault_checks, verify_spec

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNSTABLE = 3
EXIT_MISMATCH = 4
EXIT_VERIFY = 5
EXIT_MEMORY = 6
EXIT_INTERRUPT = 130
EXIT_PIPE = 141

RECORD_FIELDS = (
    "genus", "boundary", "punctures", "k", "flavor", "torsion", "free_rank",
    "generators", "lower_bound", "oracle", "match", "samples", "seed", "ms",
)


def make_spec(args):
    # An absent flag is None and takes its default here.  --k is for pmk
    # only: an explicit --k is ignored for pm+ (k = n) and for m (k = 0),
    # as `table` ignores it for m.
    flavor = args.flavor or "pm+"
    k = args.k if flavor == "pmk" else None
    spec = SurfaceSpec.make(
        args.genus, args.boundary or 0, args.punctures or 0, k, flavor
    )
    spec.require_free_module()
    return spec


def run_record(spec, samples, seed, extra_relations=None):
    """One spec end to end: engine, certificate, oracle comparison."""
    result = compute_h1(
        spec, samples=samples, seed=seed, extra_relations=extra_relations
    )
    bound = lower_bound(spec, result)
    expected = oracle(spec)
    return {
        "genus": spec.g,
        "boundary": spec.s,
        "punctures": spec.n,
        "k": spec.k,
        "flavor": spec.flavor,
        "torsion": list(result.invariants.torsion),
        "free_rank": result.invariants.free_rank,
        "generators": [name for name, _ in result.named_basis],
        "lower_bound": bound,
        "oracle": len(expected.torsion),
        "match": result.invariants == expected,
        "samples": samples,
        "seed": seed,
        "ms": result.ms,
    }


def record_json(record):
    return json.dumps({f: record[f] for f in RECORD_FIELDS})


def record_text(record):
    group = AbelianInvariants(tuple(record["torsion"]), record["free_rank"])
    lines = [
        "N_{%d,%d}^%d  flavor=%s  k=%d"
        % (record["genus"], record["boundary"], record["punctures"],
           record["flavor"], record["k"]),
        "H_1 = %s" % group.describe(),
        "basis: %s" % (", ".join(record["generators"]) or "(none)"),
        "lower bound %d, expected exponent %d, %s"
        % (record["lower_bound"], record["oracle"],
           "match" if record["match"] else "MISMATCH"),
        "%d samples, seed %d, %d ms"
        % (record["samples"], record["seed"], record["ms"]),
    ]
    return "\n".join(lines)


# What a bad --relations file raises: unreadable (OSError), a line with
# no `=` (ValueError), a letter this surface lacks, or a relation whose
# two sides act differently on homology.
RELATION_ERRORS = (
    OSError, ValueError, UnknownLetter, UnknownDerived, RelationOutsideKernel
)


def cmd_compute(args):
    spec = make_spec(args)
    try:
        extra = None
        if args.relations:
            with open(args.relations, encoding="utf-8") as handle:
                extra = parse_relations(handle.read())
        record = run_record(spec, args.samples, args.seed, extra)
    except UnstableSampling as exc:
        print("unstable sampling: %s" % exc, file=sys.stderr)
        return EXIT_UNSTABLE
    except RELATION_ERRORS as exc:
        print("invalid relations: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    out = record_json(record) if args.format == "json" else record_text(record)
    print(out)
    return EXIT_OK if record["match"] else EXIT_MISMATCH


def _value_range(text):
    """argparse type for the `table` ranges: a value like 3 or a
    non-empty range like 3-9, as a range object."""
    try:
        if "-" in text.lstrip("-"):
            lo, hi = text.split("-", 1)
            values = range(int(lo), int(hi) + 1)
        else:
            values = range(int(text), int(text) + 1)
    except ValueError:
        values = range(0)
    if not values:
        import argparse
        raise argparse.ArgumentTypeError(
            "need a value or a range like 3-9, got %r" % text)
    return values


def cmd_table(args):
    # The whole grid is built first, so an invalid range stops the sweep
    # before any output.
    specs = list(spec_grid(args.genus, args.boundary, args.punctures,
                           args.k, args.flavor))
    records = []
    errors = []
    for spec in specs:
        try:
            records.append(run_record(spec, args.samples, args.seed))
        except (SpecInvalid, UnstableSampling) as exc:
            errors.append("(%d,%d,%d,%d,%s): %s"
                          % (spec.g, spec.s, spec.n, spec.k, spec.flavor, exc))
    matched = sum(1 for r in records if r["match"])
    if args.format == "json":
        print(json.dumps(
            {"rows": [{f: r[f] for f in RECORD_FIELDS} for r in records],
             "matched": matched, "total": len(records)}
        ))
    else:
        if args.format == "csv":
            import csv

            # Generator names contain commas; csv quotes those cells.
            print(",".join(RECORD_FIELDS))
            write_row = csv.writer(sys.stdout, lineterminator="\n").writerow
        else:
            print("| " + " | ".join(RECORD_FIELDS) + " |")
            print("|" + "---|" * len(RECORD_FIELDS))

            def write_row(cells):
                print("| " + " | ".join(cells) + " |")
        for r in records:
            write_row([
                " ".join(str(x) for x in v) if isinstance(v, list) else str(v)
                for v in (r[f] for f in RECORD_FIELDS)
            ])
        print("# matched %d of %d" % (matched, len(records)))
    for err in errors:
        print("error %s" % err, file=sys.stderr)
    if errors or matched != len(records):
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_verify(args):
    if args.all:
        given = [name for name in ("genus", "boundary", "punctures",
                                   "flavor", "k")
                 if getattr(args, name) is not None]
        if given:
            print("--all takes no spec flags, got --%s" % " --".join(given),
                  file=sys.stderr)
            return EXIT_INVALID
        specs = spec_grid()
    elif args.genus is None:
        print("need --genus (or --all)", file=sys.stderr)
        return EXIT_INVALID
    else:
        specs = [make_spec(args)]
    total = 0
    for spec in specs:
        failures = verify_spec(spec) + fault_checks(spec)
        total += len(failures)
        tag = "(%d,%d,%d,%d,%s)" % (spec.g, spec.s, spec.n, spec.k, spec.flavor)
        if failures:
            for f in failures:
                print("FAIL %s %s" % (tag, f))
        else:
            print("ok   %s" % tag)
    if total:
        print("%d check(s) failed" % total, file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _sample_count(text):
    """argparse type for --samples: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        import argparse
        raise argparse.ArgumentTypeError("need an integer >= 1, got %r" % text)
    return value


def _add_spec_flags(parser, required=True):
    # An absent flag is None, so `verify --all` can refuse every given
    # one; `make_spec` fills in the defaults.
    parser.add_argument("--genus", type=int, required=required)
    parser.add_argument("--boundary", type=int)
    parser.add_argument("--punctures", type=int)
    parser.add_argument("--flavor", choices=("pm+", "pmk", "m"))
    parser.add_argument("--k", type=int)


def build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Usage errors end in one stderr line and exit 2 (EXIT_INVALID)."""

        def error(self, message):
            self.exit(EXIT_INVALID, "%s: error: %s\n" % (self.prog, message))

    parser = _Parser(
        prog="mcgtwist",
        description="Twisted first homology of mapping class groups of "
                    "non-orientable surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute one spec")
    _add_spec_flags(pc)
    pc.add_argument("--samples", type=_sample_count, default=17)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--format", choices=("json", "text"), default="text")
    pc.add_argument("--relations", metavar="FILE", default=None,
                    help="extra word relations, one `lhs = rhs` per line")
    pc.set_defaults(func=cmd_compute)

    pt = sub.add_parser("table", help="sweep a grid of specs")
    pt.add_argument("--genus", type=_value_range, default=None,
                    help="value or range like 3-9")
    pt.add_argument("--boundary", type=_value_range, default=None)
    pt.add_argument("--punctures", type=_value_range, default=None)
    pt.add_argument("--k", type=_value_range, default=None)
    pt.add_argument("--flavor", choices=("pm+", "pmk", "m"), default="pmk")
    pt.add_argument("--samples", type=_sample_count, default=17)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--format", choices=("markdown", "csv", "json"),
                    default="markdown")
    pt.set_defaults(func=cmd_table)

    pv = sub.add_parser("verify", help="run the consistency suite")
    _add_spec_flags(pv, required=False)
    pv.add_argument("--all", action="store_true",
                    help="verify the whole default grid")
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if sys.stdout is None:
        # Started with fd 1 closed: nothing could be written, so nothing
        # is run, and the exit is that of a reader gone before any output.
        return EXIT_PIPE
    try:
        code = args.func(args)
        sys.stdout.flush()
    except SpecInvalid as exc:
        print("invalid spec: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except MemoryError:
        print("out of memory", file=sys.stderr)
        return EXIT_MEMORY
    except BrokenPipeError:
        # The reader is gone.  Send what is still buffered to devnull, so
        # the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
