"""Every definition under `src/` is reached from a caller.

A name-based pass over each module's `ast`.  A definition is a
module-level function or class, or a method of a module-level class; a
function nested in another belongs to the body of the outer one.  The
roots are the names in `mcgtwist.__all__`, every function of `cli`,
each module's top-level code other than its definitions and imports,
and every dunder method.  A definition is reached when a reached body
names it, as a bare name or as an attribute, and then its body is
reached too.

Matching by name is loose.  A method `rank`, `d` or `add` is reached
wherever any object's `.rank`, `.d` or `.add` is read, and two
definitions of one name are reached together.  So the check can miss
dead code, but it never reports a definition that a reached body names.
"""

import ast
from pathlib import Path

from test_tracer import load_tracer

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mcgtwist"

# The definitions no root reaches, each kept because the benchmark's
# tracer (`perfbench/tracer.py`) names it: the functions of five `SPANS`
# entries that no workload calls, what only they reach, and the
# attribute `_system_sizes` reads.  Moving any of them to `tests/` must
# drop its `SPANS` entry in the same change.
ALLOWED = {
    "chains.cycle_lattice": "SPANS entry chains.cycle_lattice",
    "catalog.verify_catalog": "SPANS entry catalog.verify_catalog",
    "catalog.partial_exact_part": "SPANS entry catalog.partial_exact_part",
    "catalog.partial_target_boundary":
        "SPANS entry catalog.partial_target_boundary",
    "catalog.pmplus_boundary_solver":
        "SPANS entry catalog.pmplus_boundary_solver",
    "catalog.CatalogReport": "the report only verify_catalog builds",
    "catalog.CatalogReport.ok":
        "a property of verify_catalog's report, which only tests read",
    "intlin.lattice.ColumnSolver":
        "built only by cycle_lattice and pmplus_boundary_solver",
    "intlin.lattice.ColumnSolver.kernel_basis":
        "called only by cycle_lattice",
    "intlin.lattice.ColumnSolver.solve": "called only by verify_catalog",
    "surface.evaluate_word": "called only by verify_catalog",
    "engine.RelationSystem.exact_coords":
        "read by the tracer's _system_sizes for engine.exact_rows",
}


def read_sources():
    """Module name (relative to the package) -> source text."""
    return {".".join(path.relative_to(PACKAGE).with_suffix("").parts):
            path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}


def names_in(nodes):
    """Every bare name and attribute name read anywhere in `nodes`."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
IMPORTS = (ast.Import, ast.ImportFrom)


def definitions(sources):
    """Qualified name -> (simple name, names its body reads) for every
    definition that is not itself a root, and the names the roots
    read."""
    defs = {}
    roots = set()
    for module, text in sources.items():
        tree = ast.parse(text, module)
        for node in tree.body:
            if isinstance(node, IMPORTS):
                continue
            if not isinstance(node, DEFS):
                roots |= names_in([node])
                if module == "__init__" and any(
                        isinstance(t, ast.Name) and t.id == "__all__"
                        for t in getattr(node, "targets", ())):
                    roots |= set(ast.literal_eval(node.value))
                continue
            qual = "%s.%s" % (module, node.name)
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, DEFS)]
                rest = [m for m in node.body if not isinstance(m, DEFS)]
                defs[qual] = node.name, names_in(
                    rest + node.bases + node.keywords + node.decorator_list)
                for m in methods:
                    if is_dunder(m.name):
                        roots |= names_in([m])
                    else:
                        defs["%s.%s" % (qual, m.name)] = m.name, names_in([m])
            elif module == "cli":
                roots |= names_in([node])
            else:
                defs[qual] = node.name, names_in([node])
    return defs, roots


def unreached(sources, extra_roots=()):
    """The qualified names of the definitions no root reaches."""
    left, roots = definitions(sources)
    reached = roots | set(extra_roots)
    while True:
        hit = [q for q, (name, _) in left.items() if name in reached]
        if not hit:
            return set(left)
        for q in hit:
            reached |= left.pop(q)[1]


def test_src_holds_only_reached_definitions():
    extra = unreached(read_sources()) - set(ALLOWED)
    assert not extra, "no caller reaches %s" % sorted(extra)


def test_every_allowed_definition_is_still_unreached():
    # An entry a caller now reaches no longer needs the tracer's excuse.
    stale = set(ALLOWED) - unreached(read_sources())
    assert not stale, "reached now, drop from ALLOWED: %s" % sorted(stale)


def test_the_tracer_pins_reach_every_allowed_definition():
    # With the tracer's pins as roots, only the property of the report
    # `verify_catalog` returns is left, which only tests read.
    pins = {attr for _, _, attr, _ in load_tracer().SPANS} | {"exact_coords"}
    assert unreached(read_sources(), pins) == {"catalog.CatalogReport.ok"}
    assert all(ALLOWED.values())


def test_a_planted_unused_function_fails_the_check():
    sources = read_sources()
    sources["engine"] += "\n\ndef planted_unused(x):\n    return x\n"
    assert unreached(sources) - set(ALLOWED) == {"engine.planted_unused"}


def test_deleting_the_last_caller_fails_the_check():
    sources = read_sources()
    call = "not spans_cycle_lattice(system, listed)"
    assert call in sources["verify"]
    sources["verify"] = sources["verify"].replace(call, "False")
    assert (unreached(sources) - set(ALLOWED)
            == {"verify.spans_cycle_lattice"})
