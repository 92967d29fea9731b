"""End-to-end acceptance gate.

Eight criteria, each printed as a single PASS/FAIL line.  The full
parameter grids are computed once in a module fixture and shared.  A
fixed list of specs past the grid is run end to end too, and a seeded
set of 40 more is checked against the closed form.
"""

import random
import time

import pytest

from mcgtwist.catalog import build_catalog, verify_catalog
from mcgtwist.certify import descent_check, functionals_for, lower_bound, oracle
from mcgtwist.chains import ChainSpace, cycle_lattice, kernel_generator_list
from mcgtwist.cli import run_record
from mcgtwist.engine import compute_h1
from mcgtwist.intlin import Echelon
from mcgtwist.surface import FLAVORS, SurfaceSpec
from mcgtwist.verify import fault_checks, verify_spec
from helpers import same_lattice

GRID_BUDGET_SECONDS = 300.0
PER_SPEC_BUDGET_SECONDS = 2.0


def report(capfd, number, label, ok):
    line = "[criterion %d] %s: %s" % (number, label, "PASS" if ok else "FAIL")
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def twist_grid():
    """Every fixed-puncture spec: g 3-9, s 0-3, n 0-3, s+n >= 1,
    all 0 <= k <= n, with the full group at k = n."""
    for g in range(3, 10):
        for s in range(4):
            for n in range(4):
                if s + n < 1:
                    continue
                for k in range(n + 1):
                    yield SurfaceSpec.make(
                        g, s, n, k, "pm+" if k == n else "pmk"
                    )


def permutation_grid():
    """Every permutable-puncture spec: g 3-9, s 0-3, n in {2, 3}."""
    for g in range(3, 10):
        for s in range(4):
            for n in (2, 3):
                yield SurfaceSpec.make(g, s, n, flavor="m")


SPANNING_SPECS = [
    SurfaceSpec.make(3, 1, 0),
    SurfaceSpec.make(3, 0, 2, 0, "pmk"),
    SurfaceSpec.make(4, 2, 1, 0, "pmk"),
    SurfaceSpec.make(5, 0, 2, flavor="m"),
    SurfaceSpec.make(6, 1, 3, flavor="m"),
    SurfaceSpec.make(7, 0, 1),
    SurfaceSpec.make(9, 3, 3, 0, "pmk"),
    SurfaceSpec.make(4, 0, 3, 2, "pmk"),
    SurfaceSpec.make(3, 3, 2, flavor="m"),
    SurfaceSpec.make(5, 2, 2, 2, "pm+"),
    SurfaceSpec.make(8, 1, 2, 1, "pmk"),
    SurfaceSpec.make(4, 1, 2, flavor="m"),
]


@pytest.fixture(scope="module")
def grids():
    results = {}
    for spec in list(twist_grid()) + list(permutation_grid()):
        start = time.perf_counter()
        results[spec] = (compute_h1(spec), time.perf_counter() - start)
    return results


def test_criterion_1_fixed_puncture_grid(grids, capfd):
    specs = list(twist_grid())
    ok = True
    total = 0.0
    for spec in specs:
        result, seconds = grids[spec]
        total += seconds
        inv = result.invariants
        if inv != oracle(spec) or inv.free_rank != 0:
            ok = False
        if any(t != 2 for t in inv.torsion):
            ok = False
        if seconds >= PER_SPEC_BUDGET_SECONDS:
            ok = False
    if total >= GRID_BUDGET_SECONDS:
        ok = False
    report(
        capfd,
        1,
        "fixed-puncture grid matches the closed form (%d specs, %.1f s)"
        % (len(specs), total),
        ok,
    )


def test_criterion_2_permutation_grid(grids, capfd):
    specs = list(permutation_grid())
    ok = all(
        grids[spec][0].invariants == oracle(spec)
        and grids[spec][1] < PER_SPEC_BUDGET_SECONDS
        for spec in specs
    )
    report(
        capfd,
        2,
        "permutable-puncture grid matches the closed form (%d specs)"
        % len(specs),
        ok,
    )


def test_criterion_3_cycle_lattice_equality(capfd):
    ok = len(SPANNING_SPECS) >= 10
    assert len({spec.flavor for spec in SPANNING_SPECS}) == 3
    for spec in SPANNING_SPECS:
        space = ChainSpace(spec)
        lattice = cycle_lattice(space)
        listed = Echelon(
            dict(chain) for _, chain in kernel_generator_list(space)
        )
        if not same_lattice(lattice, listed):
            ok = False
    report(
        capfd,
        3,
        "cycle lattice equals the explicit generating family (%d specs)"
        % len(SPANNING_SPECS),
        ok,
    )


def test_criterion_4_catalog_soundness(capfd):
    ok = True
    checked = 0
    for spec in SPANNING_SPECS:
        space = ChainSpace(spec)
        catalog_report = verify_catalog(space, build_catalog(spec, space))
        checked += catalog_report.checked
        if not catalog_report.ok:
            ok = False
    report(
        capfd,
        4,
        "catalog relations all verified (%d checks)" % checked,
        ok and checked > 0,
    )


def test_criterion_5_sign_fault_injection(capfd):
    ok = True
    injectable = 0
    for spec in (SurfaceSpec.make(3, 2, 3, flavor="m"),
                 SurfaceSpec.make(5, 1, 2, flavor="m"),
                 SurfaceSpec.make(4, 2, 2, 0, "pmk")):
        failures = fault_checks(spec)
        injectable += 1
        if failures:
            ok = False
    report(
        capfd,
        5,
        "flipped-sign variants are caught (%d specs)" % injectable,
        ok,
    )


def test_criterion_6_sampling_stability(grids, capfd):
    ok = True
    sampled = 0
    for spec, (result, _) in grids.items():
        rep = result.sampling_report
        if not rep.stable:
            ok = False
        if result.system.partials:
            sampled += 1
            if rep.samples != 17:
                ok = False
    report(
        capfd,
        6,
        "invariants stable across 17 samples (%d sampled specs)" % sampled,
        ok and sampled > 0,
    )


def test_criterion_7_certificates(grids, capfd):
    ok = True
    for spec, (result, _) in grids.items():
        for f in functionals_for(spec):
            if descent_check(result.system, f):
                ok = False
        bound = lower_bound(spec, result)
        if spec.flavor == "pmk" and spec.n > spec.k:
            if bound != spec.n - spec.k:
                ok = False
        if spec.flavor == "m" and bound != 2:
            ok = False
        if bound > len(oracle(spec).torsion):
            ok = False
    report(capfd, 7, "descent certificates and lower bounds hold", ok)


def test_criterion_8_named_bases(grids, capfd):
    ok = True
    for spec, (result, _) in grids.items():
        if len(result.named_basis) != len(oracle(spec).torsion):
            ok = False
    report(
        capfd,
        8,
        "named candidate classes form a basis for every grid spec",
        ok,
    )


# Past the grid: genus 10-16 with up to six boundary components and
# punctures, every flavor, and genus 48, where the relations through
# the derived letters are long.
PAST_GRID_SPECS = [
    SurfaceSpec.make(10, 4, 4, 0, "pmk"),
    SurfaceSpec.make(12, 2, 5, 2, "pmk"),
    SurfaceSpec.make(13, 6, 3, 0, "pmk"),
    SurfaceSpec.make(16, 6, 6, 3, "pmk"),
    SurfaceSpec.make(14, 3, 6, 6, "pm+"),
    SurfaceSpec.make(15, 5, 5, 5, "pm+"),
    SurfaceSpec.make(10, 5, 4, flavor="m"),
    SurfaceSpec.make(12, 6, 3, flavor="m"),
    SurfaceSpec.make(14, 2, 6, flavor="m"),
    SurfaceSpec.make(16, 5, 5, flavor="m"),
    SurfaceSpec.make(48, 3, 3, flavor="m"),
]


@pytest.mark.parametrize("spec", PAST_GRID_SPECS, ids=str)
def test_spec_past_the_grid(spec):
    # The record matches the closed form, within the per-spec budget,
    # and every check of `verify` is clean.
    start = time.perf_counter()
    record = run_record(spec, 17, 0)
    seconds = time.perf_counter() - start
    assert record["match"] and record["lower_bound"] <= record["oracle"]
    assert seconds < PER_SPEC_BUDGET_SECONDS
    assert verify_spec(spec) + fault_checks(spec) == []


def sweep_specs(count, seed):
    """`count` seeded specs past the grid: every other one has genus 3 or
    4 and 4-12 boundary components, where the closed form is linear in
    s, and the rest genus 10-16 with s and n up to 6."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 2:
            g, s, n = rng.randint(10, 16), rng.randint(0, 6), rng.randint(0, 6)
        else:
            g, s, n = rng.randint(3, 4), rng.randint(4, 12), rng.randint(0, 4)
        flavor = rng.choice(FLAVORS)
        if flavor == "pmk" and n == 0 or flavor == "m" and n < 2 or s + n < 1:
            continue
        k = rng.randrange(n) if flavor == "pmk" else None
        out.append(SurfaceSpec.make(g, s, n, k, flavor))
    return out


SWEEP_SPECS = sweep_specs(40, 0)


def test_seeded_sweep_past_the_grid_matches_the_oracle():
    # A mismatch here is a finding about the program or the closed form,
    # never a reason to draw other specs.
    for spec in SWEEP_SPECS:
        result = compute_h1(spec)
        expected = oracle(spec)
        assert result.invariants == expected, spec
        assert lower_bound(spec, result) <= len(expected.torsion), spec
