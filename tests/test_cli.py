"""Command-line interface: output formats, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

import mcgtwist.catalog
import mcgtwist.chains
import mcgtwist.cli
import mcgtwist.engine
import mcgtwist.verify
from mcgtwist.catalog import build_catalog, parse_relations
from mcgtwist.cli import (
    EXIT_INTERRUPT,
    EXIT_INVALID,
    EXIT_MEMORY,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_UNSTABLE,
    EXIT_VERIFY,
    RECORD_FIELDS,
    main,
    record_json,
    record_text,
    run_record,
)
from mcgtwist.chains import (
    ChainSpace,
    cycle_lattice,
    kernel_generator_list,
)
from mcgtwist.engine import build_relation_system, compute_h1
from mcgtwist.errors import UnstableSampling
from mcgtwist.intlin import AbelianInvariants, Echelon, vec_axpy
from mcgtwist.surface import (
    INVOLUTION_KINDS,
    Gen,
    Representation,
    SurfaceSpec,
    spec_grid,
)
from mcgtwist.verify import fault_checks, spans_cycle_lattice, verify_spec
from helpers import same_lattice
from test_acceptance import permutation_grid, twist_grid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "perfbench", "reference.jsonl")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_text_output(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--genus", "3", "--boundary", "1",
        )
        assert code == EXIT_OK
        assert "Z_2 + Z_2 + Z_2" in out
        assert "match" in out

    @pytest.mark.parametrize("torsion, free_rank, line", [
        ([], 2, "H_1 = Z^2"),
        ([2, 2], 0, "H_1 = Z_2 + Z_2"),
    ], ids=["free", "torsion"])
    def test_text_group_line(self, torsion, free_rank, line):
        # The text record writes the group as `AbelianInvariants.describe`
        # does, free rank alone included.
        record = dict(genus=3, boundary=1, punctures=0, k=0, flavor="pm+",
                      torsion=torsion, free_rank=free_rank, generators=[],
                      lower_bound=0, oracle=0, match=True, samples=1,
                      seed=0, ms=0)
        assert record_text(record).splitlines()[1] == line

    def test_json_fields_and_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--genus", "7", "--punctures", "2",
            "--k", "0", "--flavor", "pmk", "--format", "json",
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert tuple(record) == RECORD_FIELDS
        assert record["torsion"] == [2, 2, 2, 2]
        assert record["lower_bound"] == 2
        assert record["match"] is True
        # Stable field order makes parse-then-serialize byte-identical.
        assert json.dumps(record) == out.strip()

    def test_determinism(self, capsys):
        argv = ("compute", "--genus", "4", "--punctures", "2", "--k", "1",
                "--flavor", "pmk", "--format", "json", "--seed", "7")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        a, b = json.loads(first), json.loads(second)
        a["ms"] = b["ms"] = 0
        assert a == b

    def test_invalid_spec(self, capsys):
        code, _, err = run(
            capsys, "compute", "--genus", "3", "--punctures", "1",
            "--flavor", "m",
        )
        assert code == EXIT_INVALID
        assert "invalid spec" in err

    def test_extra_relations_file(self, capsys, tmp_path):
        path = tmp_path / "extra.txt"
        path.write_text("a1 a2 a1 = a2 a1 a2\n")
        code, out, _ = run(
            capsys, "compute", "--genus", "3", "--boundary", "1",
            "--relations", str(path), "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["match"] is True

    def test_unstable_sampling_exits_3(self, capsys, tmp_path):
        # v1 v1 = 1 is no relation of this surface, and with it the
        # first two samples disagree: the message pins both.
        path = tmp_path / "extra.txt"
        path.write_text("v1 v1 =\n")
        code, out, err = run(
            capsys, "compute", "--genus", "3", "--boundary", "1",
            "--punctures", "2", "--flavor", "pmk", "--k", "0",
            "--relations", str(path),
        )
        assert code == EXIT_UNSTABLE
        assert out == ""
        assert err.splitlines() == [
            "unstable sampling: sample 1 gave Z_2 + Z_2 + Z_2 + Z_2, "
            "sample 0 gave Z_2 + Z_2 + Z_2 + Z_2 + Z_2"]

    def test_oracle_mismatch_exits_4_with_the_record(self, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(mcgtwist.cli, "oracle",
                            lambda spec: AbelianInvariants((2,), 0))
        code, out, err = run(
            capsys, "compute", "--genus", "4", "--boundary", "1",
            "--format", "json",
        )
        assert code == EXIT_MISMATCH
        assert err == ""
        record = json.loads(out)
        assert record["match"] is False and record["oracle"] == 1
        assert record["torsion"] == [2] * 3


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_k_is_ignored_for_flavor_m(capsys, command):
    # k plays no role for m: with or without --k, and even with a --k
    # past n, the record and the tag are those of k = 0.
    argv = [command, "--genus", "3", "--punctures", "2", "--flavor", "m"]
    if command == "compute":
        argv += ["--format", "json"]
    outputs = []
    for extra in ([], ["--k", "2"], ["--k", "5"]):
        code, out, err = run(capsys, *argv, *extra)
        assert code == EXIT_OK, err
        if command == "compute":
            record = json.loads(out)
            assert record["k"] == 0
            record["ms"] = 0
            out = json.dumps(record)
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    if command == "verify":
        assert outputs[0] == "ok   (3,0,2,0,m)\n"


class TestTable:
    def test_small_grid_matches(self, capsys):
        code, out, _ = run(
            capsys, "table", "--genus", "3-4", "--boundary", "0-1",
            "--punctures", "2", "--flavor", "m", "--format", "csv",
        )
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l]
        assert lines[0].startswith("genus,boundary")
        assert lines[-1] == "# matched 4 of 4"

    def test_markdown(self, capsys):
        code, out, _ = run(
            capsys, "table", "--genus", "3", "--boundary", "1",
            "--punctures", "0", "--flavor", "pm+",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("| genus |")

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "table", "--genus", "5", "--boundary", "0",
            "--punctures", "1", "--flavor", "pmk", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["matched"] == payload["total"] == len(payload["rows"])

    def test_csv_rows_parse(self, capsys):
        # Generator names such as b_{1,1}-a_{1,1}-a_{3,3} contain commas.
        code, out, _ = run(
            capsys, "table", "--genus", "4", "--boundary", "1",
            "--punctures", "2", "--flavor", "m", "--format", "csv",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == list(RECORD_FIELDS)
        assert rows[-1] == ["# matched 1 of 1"]
        (row,) = rows[1:-1]
        assert len(row) == len(RECORD_FIELDS)
        generators = row[RECORD_FIELDS.index("generators")].split(" ")
        assert "b_{1,1}-a_{1,1}-a_{3,3}" in generators
        expected = compute_h1(SurfaceSpec.make(4, 1, 2, flavor="m"))
        assert generators == [name for name, _ in expected.named_basis]

    def test_empty_range(self, capsys):
        code, out, _ = run(
            capsys, "table", "--genus", "3", "--boundary", "0",
            "--punctures", "0", "--flavor", "pmk", "--format", "csv",
        )
        assert code == EXIT_OK
        assert "# matched 0 of 0" in out

    @pytest.mark.parametrize("argv, expected", [
        (["--flavor", "pmk"], lambda: list(twist_grid())),
        (["--flavor", "m"], lambda: list(permutation_grid())),
        (["--flavor", "pm+"],
         lambda: [spec for spec in twist_grid() if spec.k == spec.n]),
        (["--genus", "3", "--punctures", "1-3", "--k", "1-2",
          "--flavor", "pmk"],
         lambda: [spec for spec in twist_grid()
                  if spec.g == 3 and spec.n >= 1 and 1 <= spec.k <= 2]),
    ], ids=["pmk", "m", "pm+", "k-range"])
    def test_sweeps_the_requested_specs(self, capsys, monkeypatch, argv,
                                        expected):
        # Only the enumeration: each spec's record is a stand-in.
        seen = []

        def record(spec, samples, seed):
            seen.append(spec)
            return dict.fromkeys(RECORD_FIELDS, 0) | {"match": True}

        monkeypatch.setattr(mcgtwist.cli, "run_record", record)
        code, out, _ = run(capsys, "table", *argv, "--format", "json")
        assert code == EXIT_OK
        assert seen == expected()
        assert json.loads(out)["total"] == len(seen)


    def test_unstable_spec_is_an_error_line(self, capsys, monkeypatch):
        # One spec of two fails its sampling: the other is still tabled,
        # and the failure is one stderr line.
        real = run_record

        def record(spec, samples, seed):
            if spec.g == 4:
                raise UnstableSampling("sample 2 gave 0, sample 0 gave Z_2")
            return real(spec, samples, seed)

        monkeypatch.setattr(mcgtwist.cli, "run_record", record)
        code, out, err = run(
            capsys, "table", "--genus", "3-4", "--boundary", "1",
            "--punctures", "0", "--flavor", "pm+",
        )
        assert code == EXIT_MISMATCH
        assert out.splitlines()[-1] == "# matched 1 of 1"
        assert err.splitlines() == [
            "error (4,1,0,0,pm+): sample 2 gave 0, sample 0 gave Z_2"]


class TestVerify:
    def test_single_spec_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--genus", "4", "--boundary", "1",
            "--punctures", "2", "--flavor", "m",
        )
        assert code == EXIT_OK
        assert out.startswith("ok")

    def test_needs_spec_or_all(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == EXIT_INVALID
        assert "--genus" in err

    def test_invalid_spec(self, capsys):
        code, _, _ = run(capsys, "verify", "--genus", "2")
        assert code == EXIT_INVALID

    def test_broken_catalog_relation_is_a_failure_line(self, capsys, monkeypatch):
        def broken(spec, space=None):
            return build_catalog(spec, space) + parse_relations("a1 = a2")

        monkeypatch.setattr(mcgtwist.engine, "build_catalog", broken)
        failures = verify_spec(SurfaceSpec.make(3, 1, 0))
        assert any("X1" in f for f in failures)
        code, out, _ = run(capsys, "verify", "--genus", "3", "--boundary", "1")
        assert code == EXIT_VERIFY
        assert out.startswith("FAIL") and "X1" in out

    def test_unsolvable_partial_names_its_relation(self, capsys, monkeypatch):
        # The build's K12 closed form v~(j, i) cut to its bare class
        # v_{j,i}, with no pm+ chain solving for the boundary of the
        # unknown part: the first slide instance that needs a correction
        # is no cycle.
        def uncorrected(space, j, i):
            return space.chain([("v", j, i, 1)])

        monkeypatch.setattr(mcgtwist.engine, "_vtilde", uncorrected)
        failures = verify_spec(SurfaceSpec.make(4, 1, 2, 1, "pmk"))
        assert len(failures) == 1
        assert failures[0].startswith("relation system: R14:2:3:xi3: ")
        code, out, _ = run(
            capsys, "verify", "--genus", "4", "--boundary", "1",
            "--punctures", "2", "--k", "1", "--flavor", "pmk",
        )
        assert code == EXIT_VERIFY
        assert out.startswith("FAIL") and ":xi" in out

    @pytest.mark.parametrize("rid", ["I4", "I5:5", "R14:2:1:xi1"])
    def test_non_cycle_is_one_relation_system_line(
            self, capsys, monkeypatch, rid):
        # Add the non-cycle a_{1,1} to a class relation, to the vector of
        # a k1 partial, or to every K12 closed form v~(j, i) the build
        # reads, which the slide-conjugation instances sum.
        spec = SurfaceSpec.make(5, 1, 2, 1, "pmk")

        def broken_catalog(spec, space):
            out = build_catalog(spec, space)
            for entry in out:
                if entry.rid == rid:
                    vec_axpy(entry.vector, {space.flat(Gen("a", 1), 1): 1}, 1)
            return out

        def broken_vtilde(space, j, i):
            out = mcgtwist.chains._vtilde(space, j, i)
            vec_axpy(out, {space.flat(Gen("a", 1), 1): 1}, 1)
            return out

        if rid.startswith("R14"):
            monkeypatch.setattr(mcgtwist.engine, "_vtilde", broken_vtilde)
        else:
            monkeypatch.setattr(mcgtwist.engine, "build_catalog",
                                broken_catalog)
        (failure,) = verify_spec(spec)
        assert failure.startswith("relation system: %s: " % rid)
        code, out, _ = run(
            capsys, "verify", "--genus", "5", "--boundary", "1",
            "--punctures", "2", "--k", "1", "--flavor", "pmk",
        )
        assert code == EXIT_VERIFY
        assert out == "FAIL (5,1,2,1,pmk) %s\n" % failure

    @pytest.mark.parametrize("name, message", [
        ("u1", "psi(u1) is not an involution"),
        ("a1", "psi(a1) is not a transvection"),
    ])
    def test_wrong_inverse_is_one_line(self, capsys, monkeypatch, name,
                                       message):
        # Replace one inverse, after the build, by the other kind's rule.
        gen = Gen(name[0], int(name[1:]))

        # The checks read the moved rows, so install a new representation.
        def corrupted(spec):
            system = build_relation_system(spec)
            moved = dict(system.space.rep.moved)
            rows = moved[gen, 1]
            if gen.kind in INVOLUTION_KINDS:
                # 2I - psi(gen): the rows psi(gen) moves, and no others.
                flipped = []
                for r, entries in rows:
                    row = {c: -v for c, v in entries}
                    row[r] = row.get(r, 0) + 2
                    flipped.append((r, tuple(
                        (c, v) for c, v in sorted(row.items()) if v)))
                moved[gen, -1] = tuple(flipped)
            else:
                moved[gen, -1] = rows
            system.space.rep = Representation(spec, moved)
            return system

        monkeypatch.setattr(mcgtwist.verify, "build_relation_system",
                            corrupted)
        spec = SurfaceSpec.make(4, 1, 2, flavor="m")
        assert verify_spec(spec) == [message]
        code, out, _ = run(
            capsys, "verify", "--genus", "4", "--boundary", "1",
            "--punctures", "2", "--flavor", "m",
        )
        assert code == EXIT_VERIFY
        assert out == "FAIL (4,1,2,0,m) %s\n" % message

    def test_crash_in_a_sign_variant_is_a_failure_line(self, capsys,
                                                       monkeypatch):
        # An exception while checking a sign variant is a fault of the
        # checks, not a caught fault.
        def crash(spec, sign_variant=None):
            raise TypeError("boom")

        monkeypatch.setattr(mcgtwist.verify, "build_representation", crash)
        spec = SurfaceSpec.make(4, 1, 3, flavor="m")
        assert fault_checks(spec) == [
            "sign variant 'e' raised TypeError: boom",
            "sign variant 's' raised TypeError: boom",
        ]
        code, out, _ = run(
            capsys, "verify", "--genus", "4", "--boundary", "1",
            "--punctures", "3", "--flavor", "m",
        )
        assert code == EXIT_VERIFY
        assert out == "".join(
            "FAIL (4,1,3,0,m) %s\n" % f for f in fault_checks(spec)
        )

    def test_sign_variant_checks_stop_at_the_first_failure(self,
                                                           monkeypatch):
        # fault_checks reads the checks lazily: the first failure catches
        # the variant and nothing after it runs, while a crash before it
        # is still a failure line.
        def first_then_crash(space):
            yield "first"
            raise TypeError("boom")

        def crash(space):
            raise TypeError("boom")
            yield  # a generator: the crash comes while it is read

        spec = SurfaceSpec.make(4, 1, 3, flavor="m")
        monkeypatch.setattr(mcgtwist.verify, "representation_failures",
                            first_then_crash)
        assert fault_checks(spec) == []
        monkeypatch.setattr(mcgtwist.verify, "representation_failures", crash)
        assert fault_checks(spec) == [
            "sign variant 'e' raised TypeError: boom",
            "sign variant 's' raised TypeError: boom",
        ]

    def test_sign_variants_run_the_checks_of_verify(self, monkeypatch):
        # Blinding verify's own representation checks must let both
        # flipped signs through.
        monkeypatch.setattr(mcgtwist.verify, "representation_failures",
                            lambda space: [])
        spec = SurfaceSpec.make(4, 1, 3, flavor="m")
        assert fault_checks(spec) == [
            "sign variant 'e' went undetected",
            "sign variant 's' went undetected",
        ]

    def test_all_visits_the_acceptance_grid(self, capsys, monkeypatch):
        # `verify --all` walks g, s, n and, for each, the twist specs in
        # k order and then the permutation spec: the acceptance grid,
        # stably sorted by (g, s, n).
        seen = []
        monkeypatch.setattr(mcgtwist.cli, "verify_spec",
                            lambda spec: seen.append(spec) or [])
        monkeypatch.setattr(mcgtwist.cli, "fault_checks", lambda spec: [])
        code, out, _ = run(capsys, "verify", "--all")
        assert code == EXIT_OK
        grid = sorted(list(twist_grid()) + list(permutation_grid()),
                      key=lambda spec: (spec.g, spec.s, spec.n))
        assert len(grid) == len(set(grid)) == 329
        assert seen == grid
        assert len(out.splitlines()) == 329

    def test_builds_the_pipeline_once(self, monkeypatch):
        # verify_spec relies on the build for the catalog checks, so it
        # never evaluates a word relation on its own.
        names = ("cycle_lattice", "build_catalog", "rewrite_relation_all",
                 "evaluate_word")
        calls = Counter()
        for module in (mcgtwist.verify, mcgtwist.engine, mcgtwist.catalog,
                       mcgtwist.chains):
            for name in names:
                if hasattr(module, name):
                    def counted(*args, _name=name, _f=getattr(module, name)):
                        calls[_name] += 1
                        return _f(*args)

                    monkeypatch.setattr(module, name, counted)
        spec = SurfaceSpec.make(4, 1, 2, flavor="m")
        words = sum(entry.kind == "word" for entry in build_catalog(spec))
        assert verify_spec(spec) == []
        assert calls == {"build_catalog": 1, "rewrite_relation_all": words}
        assert calls["evaluate_word"] == 0

    @pytest.mark.parametrize("spec", [SurfaceSpec.make(5, 1, 2, 1, "pmk"),
                                      SurfaceSpec.make(4, 1, 2, flavor="m")],
                             ids=str)
    def test_one_family_and_no_solver_per_spec(self, monkeypatch, spec):
        # Only verify's lattice certificate builds the explicit family,
        # once per spec: the build takes the pm+ basis and the slide
        # instances in closed form, so compute builds none.  Neither
        # reaches the pm+ boundary solver or its two inputs.
        names = ("kernel_generator_list", "pmplus_boundary_solver",
                 "partial_exact_part", "partial_target_boundary")
        calls = Counter()
        for name, module in list(sys.modules.items()):
            if not name.startswith("mcgtwist"):
                continue
            for fname in names:
                if hasattr(module, fname):
                    def counted(*args, _name=fname,
                                _f=getattr(module, fname)):
                        calls[_name] += 1
                        return _f(*args)

                    monkeypatch.setattr(module, fname, counted)
        assert verify_spec(spec) == []
        assert calls == {"kernel_generator_list": 1}
        calls.clear()
        assert run_record(spec, 17, 0)["match"]
        assert calls == {}

    def test_compute_builds_no_cycle_lattice(self, monkeypatch):
        # compute works on the relation chains, and verify_spec certifies
        # the explicit family without a basis of the cycle lattice
        # (`spans_cycle_lattice`): neither builds one.
        calls = Counter()
        for name, module in list(sys.modules.items()):
            if (name.startswith("mcgtwist")
                    and hasattr(module, "cycle_lattice")):
                def counted(*args, _name=name, _f=module.cycle_lattice):
                    calls[_name] += 1
                    return _f(*args)

                monkeypatch.setattr(module, "cycle_lattice", counted)
        spec = SurfaceSpec.make(4, 1, 2, flavor="m")
        assert compute_h1(spec).invariants.torsion
        assert run_record(spec, 17, 0)["match"]
        assert not calls
        assert verify_spec(spec) == []
        assert not calls

    def test_certificate_agrees_with_the_cycle_lattice(self):
        # spans_cycle_lattice against an echelon basis of the kernel, on
        # the grid and on four specs past it; on every seventh spec also
        # for the family with a generator dropped, one doubled and a
        # non-cycle added, which must all fail.
        specs = list(spec_grid())
        specs += [SurfaceSpec.make(g, 3, 3, 0, "pmk") for g in (10, 11, 12)]
        specs.append(SurfaceSpec.make(10, 3, 3, flavor="m"))
        for t, spec in enumerate(specs):
            space = ChainSpace(spec)
            lattice = cycle_lattice(space)
            system = SimpleNamespace(space=space, rank=lattice.rank)
            listed = [c for _, c in kernel_generator_list(space)]
            assert spans_cycle_lattice(system, listed), spec
            assert same_lattice(lattice, Echelon(listed)), spec
            if t % 7:
                continue
            for family in broken_families(space, listed):
                assert not spans_cycle_lattice(system, family), spec
                assert not same_lattice(lattice, Echelon(family)), spec

    @pytest.mark.parametrize("fault", range(3))
    def test_broken_family_is_a_fail_line(self, capsys, monkeypatch, fault):
        # The family verify builds for its lattice certificate is broken;
        # the build reads no family, so only the certificate sees the
        # fault.
        def broken(space):
            chains = [c for _, c in kernel_generator_list(space)]
            return [("K", c) for c in broken_families(space, chains)[fault]]

        monkeypatch.setattr(mcgtwist.verify, "kernel_generator_list", broken)
        code, out, _ = run(
            capsys, "verify", "--genus", "4", "--boundary", "1",
            "--punctures", "2", "--flavor", "m",
        )
        assert code == EXIT_VERIFY
        assert out == ("FAIL (4,1,2,0,m) cycle lattice differs from the "
                       "explicit family\n")

    def test_verify_builds_no_exact_echelon_or_filter(self, monkeypatch):
        # verify checks the relation chains; the elimination of the exact
        # relations (its forest and echelon) and the filtered partial
        # instances are built on first read, which only the quotient does.
        systems = []
        cached = ("elimination", "partials")

        def recording(spec):
            systems.append(build_relation_system(spec))
            return systems[-1]

        monkeypatch.setattr(mcgtwist.verify, "build_relation_system",
                            recording)
        spec = SurfaceSpec.make(5, 1, 2, 1, "pmk")
        assert verify_spec(spec) + fault_checks(spec) == []
        [system] = systems
        assert system.instances
        assert not any(name in vars(system) for name in cached)
        monkeypatch.setattr(mcgtwist.engine, "build_relation_system",
                            lambda spec, extra_relations: system)
        assert compute_h1(spec).invariants.torsion
        assert all(name in vars(system) for name in cached)


def broken_families(space, chains):
    """The family with its last chain dropped, its first doubled, and a
    non-cycle added."""
    doubled = {f: 2 * v for f, v in chains[0].items()}
    return [chains[:-1], [doubled] + chains[1:],
            chains + [space.chain([("a", 1, 1, 1)])]]


def run_invalid(capsys, *argv):
    """A bad invocation must exit 2 with one line on stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert len(err.splitlines()) == 1, err
    return err


class TestBadInput:
    @pytest.mark.parametrize("command", ["compute", "table"])
    def test_zero_samples(self, capsys, command):
        err = run_invalid(capsys, command, "--genus", "3", "--boundary", "1",
                          "--samples", "0")
        assert "--samples" in err

    def test_missing_relations_file(self, capsys, tmp_path):
        err = run_invalid(capsys, "compute", "--genus", "3", "--boundary", "1",
                          "--relations", str(tmp_path / "absent.txt"))
        assert "absent.txt" in err

    @pytest.mark.parametrize("text, named", [
        ("z9 a1 = a1 z9\n", "z9"),        # UnknownLetter
        ("e5 = e5\n", "e5"),              # parses, but (3,1,0) has no e5
        ("a1 a2\n", "lhs = rhs"),         # no `=`
        ("a1 = a2\n", "cycle lattice"),   # RelationOutsideKernel
        ("a1 a2 = a2 a1\n", "X1"),        # the same, through a closed form
        ("v1 a1 = a1 v1\n", "v1"),        # UnknownLetter in a commutation
    ])
    def test_bad_relation(self, capsys, tmp_path, text, named):
        path = tmp_path / "extra.txt"
        path.write_text(text)
        err = run_invalid(capsys, "compute", "--genus", "3", "--boundary", "1",
                          "--relations", str(path))
        assert named in err

    def test_false_commutation_names_its_first_chain(self, capsys, tmp_path):
        # The closed form builds no chain at the coefficients neither
        # letter moves; the first nonzero chain is still the one named.
        path = tmp_path / "extra.txt"
        path.write_text("a1 a2 = a2 a1\n")
        err = run_invalid(capsys, "compute", "--genus", "3", "--boundary", "1",
                          "--relations", str(path))
        assert err.endswith(
            "X1: not in the cycle lattice: +a_{2,1} +a_{2,2}\n"), err

    @pytest.mark.parametrize("genus, named", [
        ("abc", "--genus"),   # not a number
        ("9-3", "--genus"),   # empty range
        ("2", "genus"),       # SpecInvalid while enumerating the grid
    ])
    def test_bad_table_range(self, capsys, genus, named):
        err = run_invalid(capsys, "table", "--genus", genus)
        assert named in err

    @pytest.mark.parametrize("flags", [
        ("--genus", "3", "--flavor", "m"),
        ("--boundary", "0"),
        ("--punctures", "1", "--k", "0"),
    ])
    def test_verify_all_takes_no_spec_flags(self, capsys, monkeypatch, flags):
        # A spec flag with --all used to be dropped silently.
        monkeypatch.setattr(mcgtwist.cli, "verify_spec",
                            lambda spec: pytest.fail("verified %s" % (spec,)))
        err = run_invalid(capsys, "verify", "--all", *flags)
        assert "--all" in err and flags[0] in err

    @pytest.mark.parametrize("command", ["compute", "verify"])
    def test_no_boundary_or_puncture(self, capsys, command):
        err = run_invalid(capsys, command, "--genus", "3")
        assert err == ("invalid spec: computation requires at least one "
                       "boundary or puncture\n")


def test_exit_codes_are_distinct():
    codes = [EXIT_OK, EXIT_INVALID, EXIT_UNSTABLE, EXIT_MISMATCH,
             EXIT_VERIFY, EXIT_MEMORY, EXIT_INTERRUPT, EXIT_PIPE]
    assert len(set(codes)) == len(codes) == 8
    assert EXIT_MEMORY == 6
    assert EXIT_INTERRUPT == 128 + 2 and EXIT_PIPE == 128 + 13


# The call each command makes per spec, to be patched to raise.
PER_SPEC = pytest.mark.parametrize("argv, target", [
    (["compute", "--genus", "4", "--boundary", "1"], "run_record"),
    (["table", "--genus", "3-4", "--boundary", "1"], "run_record"),
    (["verify", "--all"], "verify_spec"),
], ids=["compute", "table", "verify-all"])


@PER_SPEC
def test_interrupt_is_one_line_and_exit_130(capsys, monkeypatch, argv,
                                            target):
    # SIGINT raises KeyboardInterrupt in the running spec: the run ends
    # with exit 130 and one stderr line, not a traceback.
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(mcgtwist.cli, target, interrupted)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_INTERRUPT == 130
    assert err == "interrupted\n"


@PER_SPEC
def test_memory_error_is_one_line_and_exit_6(capsys, monkeypatch, argv,
                                             target):
    # Memory exhaustion raises MemoryError in the running spec: the run
    # ends with exit 6 and one stderr line, not a traceback.
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(mcgtwist.cli, target, exhausted)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_MEMORY == 6
    assert err == "out of memory\n"


QUIET_ARGVS = [
    ["compute", "--genus", "4", "--boundary", "1"],
    ["table", "--genus", "3-4", "--boundary", "0-1", "--punctures", "2",
     "--flavor", "m", "--format", "csv"],
    ["verify", "--genus", "4", "--boundary", "1", "--punctures", "2",
     "--flavor", "m"],
]


@pytest.mark.parametrize("argv", QUIET_ARGVS, ids=lambda argv: argv[0])
def test_closed_pipe_exits_quietly(argv):
    # The reader of standard output is gone before anything is written.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mcgtwist.cli"] + argv,
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PIPE
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", QUIET_ARGVS, ids=lambda argv: argv[0])
def test_closed_stdout_exits_quietly(argv):
    # Started with fd 1 closed, so sys.stdout is None.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mcgtwist.cli"] + argv,
        stderr=subprocess.PIPE, env=env, timeout=120,
        preexec_fn=lambda: os.close(1),
    )
    assert proc.returncode == EXIT_PIPE
    assert proc.stderr == b""


def test_records_match_committed_reference():
    # Every spec of perfbench/reference.jsonl (the 329 acceptance-grid
    # specs and four g=10 specs), at two sampling seeds.  Records carry
    # neither `ms` nor `seed` there.
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = [line.strip() for line in handle]
    grid = {(spec.g, spec.s, spec.n, spec.k, spec.flavor)
            for spec in list(twist_grid()) + list(permutation_grid())}
    keys = []
    for line in reference:
        rec = json.loads(line)
        keys.append((rec["genus"], rec["boundary"], rec["punctures"],
                     rec["k"], rec["flavor"]))
    assert len(keys) == 333 and grid <= set(keys)
    for key, line in zip(keys, reference):
        spec = SurfaceSpec(*key)
        for seed in (0, 4):
            record = json.loads(record_json(run_record(spec, 17, seed)))
            del record["ms"], record["seed"]
            assert json.dumps(record) == line, (key, seed)


# Modules that importing the package must not load: `dataclasses` and
# what it pulls in, `argparse` (imported by `build_parser`) with its
# `gettext`, `csv` (imported by `table --format csv`) and `typing`.
UNLOADED = ("dataclasses", "inspect", "ast", "dis", "argparse", "gettext",
            "csv", "typing")


def test_importing_the_package_loads_no_parser_csv_or_dataclass_modules():
    # -S: no site, so nothing but the interpreter's own start-up is loaded
    # before the import.
    code = ("import sys; sys.path.insert(0, %r); import mcgtwist, "
            "mcgtwist.cli; print(' '.join(m for m in %r if m in sys.modules))"
            % (os.path.join(ROOT, "src"), UNLOADED))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def cli_process(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", "mcgtwist.cli"] + list(argv),
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_usage_error_in_a_fresh_process_is_one_line():
    # `build_parser` imports argparse itself.
    proc = cli_process("compute")
    assert proc.returncode == EXIT_INVALID
    assert proc.stdout == ""
    assert proc.stderr == ("mcgtwist compute: error: the following arguments"
                           " are required: --genus\n")


def test_csv_in_a_fresh_process_quotes_generator_names():
    # `table --format csv` imports csv itself.
    proc = cli_process("table", "--genus", "4", "--boundary", "1",
                       "--punctures", "2", "--flavor", "m", "--format", "csv")
    assert proc.returncode == EXIT_OK, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert (',"a_{1,3} u_{1,3} b_{1,1}-a_{1,1}-a_{3,3} v_{2,1} s_{1,1}",'
            in lines[1])
