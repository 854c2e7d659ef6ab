"""Source hygiene: no unused imports in the package or the tests (a
function-local one is read in its own function), no unread private
module-level names or function parameters in the package, no public
function, class, method or `arith` backend op that the pipeline does not
reach from its roots (module-level statements, the console entry point,
the benchmark harness and the names README.md gives), no dataclass field
that none of those reads, no option that
every caller in the package and the benchmark leaves at its default, no
new mode comparison outside `arith`, no seeded
random vectors in the stability verdict, one Kronecker product and no
`np.kron`, one fraction-free elimination loop, one integer inverse and no
solve against the identity, stacked Poisson bracket kernels with one home
for the entry closed form, one test of strong preservation (no second
check in `higgs_to_quiver`, no tolerance in either backend's `solve`),
one home per certification fact (no invariant subspace search in
`irreducible`, no import of `spectral` but `cli`'s, one chain check of a
nilpotent class), and subcommands that load
only the layers they run: a CLI import, `type-check`, `ds solve` without
`spectral`, the exact layers and the exact `bridge --hitchin` conversions
without numpy.  No package
module imports sympy, numpy is the one runtime dependency, and an exact
`ds verify --hitchin` and the `bridge --hitchin` conversions, the integer
factorization included, load no sympy."""

import ast
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC.parent / "fixtures"
GOLDEN = SRC.parent / "tests" / "golden"
PACKAGE = sorted((SRC / "starquiver").glob("*.py"))
# the benchmark harness, its tests left out
BENCH = [p for p in sorted((SRC.parent / "perfbench").glob("*.py")) if not p.name.startswith("test_") and p.name != "conftest.py"]


def scoped_imports(tree):
    """Map each scope (the module, or the innermost enclosing function) to
    the imports written directly in it."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.setdefault(scope, []).append(child)
            visit(child, child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(tree, tree)
    return found


def unused_imports(path):
    """Names bound by an import and never read in its scope: anywhere in the
    module for a module-level import, inside its own function (nested
    functions included) for a function-local one."""
    hits = []
    for scope, imports in scoped_imports(ast.parse(path.read_text(encoding="utf-8"))).items():
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for node in imports:
            names = {(alias.asname or alias.name).split(".")[0] for alias in node.names}
            hits += [f"{path.name}:{node.lineno}: {name}" for name in sorted(names - used)]
    return hits


def test_no_unused_imports():
    hits = [hit for path in sorted((SRC / "starquiver").glob("*.py")) for hit in unused_imports(path)]
    assert hits == []


def test_no_unused_test_imports():
    hits = [hit for path in sorted((SRC.parent / "tests").glob("*.py")) for hit in unused_imports(path)]
    assert hits == []


def test_local_import_must_be_read_in_its_own_function(tmp_path):
    # one function imports worst and never reads it, another reads its own
    # worst: the first import is unused however the module reads the name
    module = tmp_path / "mod.py"
    module.write_text(
        "def to_quiver(rep):\n"
        "    from .starrep import moment_residual, worst\n"
        "    return moment_residual(rep)\n"
        "\n"
        "\n"
        "def check(values):\n"
        "    from .starrep import worst\n"
        "    return worst(values)\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["mod.py:2: worst"]


def private_definitions(tree):
    """Module-level private functions, classes and constants (no dunders)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.extend((n.id, node.lineno) for n in ast.walk(target) if isinstance(n, ast.Name))
    return [(name, line) for name, line in names if name.startswith("_") and not name.startswith("__")]


def test_no_unread_private_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted((SRC / "starquiver").glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    hits = [f"{name}:{line}: {sym}" for name, tree in trees.items() for sym, line in private_definitions(tree) if sym not in read]
    assert hits == []


# prints the package layers, numpy and sympy that the interpreter has loaded
LOADED = (
    "print(' '.join(sorted(m.removeprefix('starquiver.') for m in sys.modules"
    " if m.startswith('starquiver.') or m in ('numpy', 'sympy'))))"
)


def run_fresh(code):
    """Standard output lines of ``code`` run in a fresh interpreter on the sources."""
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()


def test_cli_import_leaves_sympy_unloaded(tmp_path):
    # the import loads no layer beyond combinat and jsonio; type-check, on
    # both type fixtures and on a malformed type, loads no numpy, and
    # neither does a residue tuple that its decoder rejects
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": ["0", "1/0"], "rank": 2, "K": 4, "flags": []}), encoding="utf-8")
    runs = [
        f"assert main(['type-check', '--type', {str(FIXTURES / name)!r}]) == 0; "
        for name in ("type_rank2_full_flags.json", "type_rank2_tight_weights.json")
    ]
    code = (
        f"import sys; from starquiver.cli import main; {LOADED}; "
        + "".join(runs)
        + f"assert main(['type-check', '--type', {str(bad)!r}]) == 1; "
        + f"assert main(['bridge', 'to-quiver', '--higgs', {str(FIXTURES / 'higgs_rank2_split_bundle.json')!r}]) == 1; "
        + LOADED
    )
    lines = run_fresh(code)
    assert lines[0] == lines[-1] == "cli combinat jsonio"


def test_verify_hitchin_leaves_sympy_unloaded(tmp_path):
    # the exact spectral cross-check (char_poly and vanishing orders) runs on
    # plain integers; ds loads no poisson, and spectral only for the
    # appendix of ds verify --hitchin: ds solve and a plain ds verify
    # certify with dsolve's own rank profile
    instance, sol = str(FIXTURES / "ds_rank2_four_rank1.json"), str(tmp_path / "sol.json")
    code = (
        "import sys; from starquiver.cli import main; "
        f"assert main(['ds', 'solve', '--instance', {instance!r}, '--seed', '7', '--out', {sol!r}]) == 0; "
        f"{LOADED}; "
        f"assert main(['ds', 'verify', '--solution', {sol!r}, '--instance', {instance!r}]) == 0; "
        f"{LOADED}; "
        f"assert main(['ds', 'verify', '--solution', {sol!r}, '--instance', {instance!r}, '--hitchin']) == 0; "
        f"{LOADED}"
    )
    solved, verified, loaded = (line.split() for line in run_fresh(code) if line.startswith("arith "))
    assert "dsolve" in solved and "spectral" not in solved and solved == verified
    assert "dsolve" in loaded and "spectral" in loaded and "numpy" in loaded
    assert "poisson" not in loaded and "sympy" not in loaded


@pytest.mark.parametrize("higgs", ["heavy_top_higgs.json", "closed_form_higgs.json"])
def test_bridge_hitchin_leaves_sympy_unloaded(tmp_path, higgs):
    # the spectral appendix certifies integrality in integers: the heavy top
    # (p = lam^2) by its discriminant, the closed form by a specialization.
    # bridge on these exact tuples loads no dsolve, poisson or numpy, and
    # poisson check on the converted representation no dsolve, higgs or
    # spectral, but the float backend and numpy
    higgs = GOLDEN / higgs
    typ, rep = tmp_path / "type.json", str(tmp_path / "rep.json")
    typ.write_text(json.dumps(json.loads(higgs.read_text(encoding="utf-8"))["type"]), encoding="utf-8")
    code = (
        "import sys; from starquiver.cli import main; "
        f"assert main(['bridge', 'to-quiver', '--higgs', {str(higgs)!r}, '--hitchin', '--out', {rep!r}]) == 0; "
        f"{LOADED}; "
        f"assert main(['bridge', 'to-higgs', '--rep', {rep!r}, '--type', {str(typ)!r}, '--hitchin']) == 0; "
        f"{LOADED}"
    )
    lines = run_fresh(code)
    bridge = "arith cli combinat higgs jsonio linalg_exact spectral starrep"
    assert [line for line in lines if line.startswith("arith ")] == [bridge, bridge]
    assert sum(line.startswith("spectral polynomial integral: ") for line in lines) == 2
    code = f"import sys; from starquiver.cli import main; main(['poisson', 'check', '--rep', {rep!r}, '--grid', '1']); {LOADED}"
    assert run_fresh(code)[-1] == "arith cli combinat floatarith jsonio linalg_exact numpy poisson starrep"


def test_exact_layers_import_without_numpy():
    # numpy comes with the float backend, which arith.ops imports on first use
    for layer in ("arith", "higgs", "starrep", "spectral"):
        loaded = run_fresh(f"import sys, starquiver.{layer}; {LOADED}")[-1].split()
        assert layer in loaded and "floatarith" not in loaded and "numpy" not in loaded
    loaded = run_fresh(f"import sys; from starquiver import arith; arith.ops('exact'); {LOADED}")[-1]
    assert loaded == "arith linalg_exact"
    loaded = run_fresh(f"import sys; from starquiver import arith; arith.ops('float'); {LOADED}")[-1]
    assert loaded == "arith floatarith linalg_exact numpy"


@pytest.mark.parametrize("fallback,integral", [(True, "integral"), (False, "integral")])
def test_bridge_hitchin_fallback_loads_sympy(tmp_path, fallback, integral):
    # with a _certify that decides nothing, the closed form's integrality
    # falls to the integer factorization, which decides it as the
    # specialization certificate does, without loading sympy, and the
    # conversion exits 0
    higgs, report = str(GOLDEN / "closed_form_higgs.json"), tmp_path / "report.json"
    code = "\n".join(
        [
            "import sys",
            "from starquiver import cli, spectral",
            *(["spectral._certify = lambda c: None"] if fallback else []),
            f"print(cli.main(['bridge', 'to-quiver', '--higgs', {higgs!r}, '--hitchin', '--report', {str(report)!r}]))",
            LOADED,
        ]
    )
    lines = run_fresh(code)
    assert lines[-2] == "0"
    assert "spectral" in lines[-1].split() and "sympy" not in lines[-1].split()
    assert json.loads(report.read_text(encoding="utf-8"))["spectral"]["integral"] == integral


def sympy_imports(tree):
    """Line numbers of the imports of sympy in a module, function-local ones
    included."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        lines += [node.lineno for module in modules if module.split(".")[0] == "sympy"]
    return lines


def test_no_package_module_imports_sympy():
    # integrality runs in plain integers; sympy is the tests' oracle only
    hits = {path.name: sympy_imports(ast.parse(path.read_text(encoding="utf-8"))) for path in PACKAGE}
    assert {name: lines for name, lines in hits.items() if lines} == {}
    # the guard sees the imports of the former fallback, function-local both
    former = "def f(poly):\n    import sympy\n    from sympy.polys.polyerrors import BasePolynomialError\n"
    assert sympy_imports(ast.parse(former)) == [2, 3]


def test_numpy_is_the_one_runtime_dependency():
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.S | re.M).group(1)
    assert re.findall(r'"([\w.-]+)', block) == ["numpy"]


def module_aliases(tree):
    """The names a module's imports bind to modules: each maps to the stem of
    a scanned module (one of the package or of ``perfbench``), or to None
    for any other module."""
    package, bench = {p.stem for p in PACKAGE}, {p.stem for p in BENCH}
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                target = a.name if a.asname else a.name.split(".")[0]
                stem = target.rsplit(".", 1)[-1]
                scanned = (target == f"starquiver.{stem}" and stem in package) or (target == stem and stem in bench)
                out[a.asname or target] = stem if scanned else None
        elif isinstance(node, ast.ImportFrom) and (node.module == "starquiver" or node.level and not node.module):
            out.update((a.asname or a.name, a.name) for a in node.names if a.name in package)
    return out


def local_names(f):
    """The names a function binds itself: parameters, assignment and loop
    targets and nested definitions, its nested functions' included; not its
    imports, nor what it declares global or nonlocal."""
    bound, free = set(), set()
    for n in ast.walk(f):
        if isinstance(n, ast.arg):
            bound.add(n.arg)
        elif isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            bound.add(n.id)
        elif isinstance(n, ast.ExceptHandler) and n.name:
            bound.add(n.name)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and n is not f:
            bound.add(n.name)
        elif isinstance(n, (ast.Global, ast.Nonlocal)):
            free.update(n.names)
    return bound - free


def names_read(node, modules=None):
    """What ``node`` reads: a loaded name as ``name``, unless ``node`` is a
    function that binds it itself; an attribute as ``.attr``, unless it is
    read off a module that ``modules`` (``module_aliases``) names: then as
    ``stem.attr`` for a scanned module and not at all for another one, so
    ``ex.inv`` reads ``linalg_exact.inv`` and ``np.linalg.inv`` nothing."""
    modules = modules or {}
    local = local_names(node) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else set()
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in local:
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            root = n.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not isinstance(root, ast.Name) or root.id not in modules or root.id in local:
                out.add(f".{n.attr}")
            elif n.value is root and modules[root.id]:
                out.add(f"{modules[root.id]}.{n.attr}")
    return out


def readme_names():
    """Identifiers inside README.md's backticked spans."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    return {name for span in re.findall(r"`([^`]+)`", text) for name in re.findall(r"[A-Za-z_]\w*", span)}


def definition_units(path):
    """(key, class, line, names read) for each piece of a module: a
    module-level function, a class apart from its members, a method or a
    method alias such as ``copy = staticmethod(...)`` (key ``Class.name``),
    and the remaining module-level statements (key None)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = module_aliases(tree)
    units, rest = [], []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            units.append((node.name, None, node.lineno, names_read(node, modules)))
        elif isinstance(node, ast.ClassDef):
            members = {}  # statement -> member name; a constant such as ``name = "exact"`` stays in the head
            for m in node.body:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    members[m] = m.name
                elif isinstance(m, ast.Assign) and isinstance(m.targets[0], ast.Name) and not isinstance(m.value, ast.Constant):
                    members[m] = m.targets[0].id
            head = node.decorator_list + node.bases + node.keywords + [n for n in node.body if n not in members]
            units.append((node.name, None, node.lineno, set().union(*(names_read(n, modules) for n in head))))
            units += [(f"{node.name}.{name}", node.name, m.lineno, names_read(m, modules)) for m, name in members.items()]
        else:
            rest.append(node)
    return units + [(None, None, None, set().union(*(names_read(n, modules) for n in rest)))]


def entry_points():
    """(path, function name) of each console script in pyproject.toml's ``[project.scripts]``."""
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return {
        ((SRC / Path(*module.split("."))).with_suffix(".py"), function)
        for module, function in re.findall(r'"([\w.]+):(\w+)"', section)
    }


def unit_table(paths):
    """{(path, key): (owning class as (path, name) or None, line, names read)} over ``definition_units``."""
    return {
        (path, key): (cls and (path, cls), line, reads)
        for path in paths
        for key, cls, line, reads in definition_units(path)
    }


def reached(units, roots):
    """The units of ``unit_table`` that ``roots`` reach.  A reached unit
    reaches the module-level definitions whose names it loads or reads off
    their module, and the members of reached classes whose names it reads
    as attributes (or, inside the class, as names); a reached class reaches
    its dunders.  A cycle that no root reaches stays unreached."""

    def name(unit):
        return unit[1].split(".")[-1]

    live = set(roots)
    while True:
        reads = set().union(*(units[u][2] for u in live))
        inside = {}  # a live class's own bare reads, which reach its members
        for u in live:
            if units[u][0]:
                inside.setdefault(units[u][0], set()).update(units[u][2])
        grown = {
            u
            for u, (owner, _, _) in units.items()
            if u not in live
            and (
                name(u) in reads or f"{u[0].stem}.{name(u)}" in reads
                if owner is None
                else owner in live and (f".{name(u)}" in reads or name(u) in inside.get(owner, ()) or name(u).startswith("__"))
            )
        }
        if not grown:
            return live
        live |= grown


@functools.cache
def pipeline():
    """(``unit_table`` of the package and ``perfbench``, the units the
    pipeline reaches).  The roots are the module-level statements, the
    console entry points, every definition of ``perfbench`` outside its
    tests and whatever README.md names in backticks; tests reach nothing."""
    units = unit_table(PACKAGE + BENCH)
    mentioned, entries = readme_names(), entry_points()
    roots = {u for u in units if u[1] is None or u[0] in BENCH or u in entries or u[1].split(".")[-1] in mentioned}
    return units, reached(units, roots)


def unreachable():
    """(path, key, line) of every definition of the package or of
    ``perfbench`` that the pipeline never reaches."""
    units, live = pipeline()
    return [(path, key, units[path, key][1]) for path, key in units if (path, key) not in live]


def unreached_public(filter):
    """``file:line: key`` of each unreached public definition of the package that ``filter(path, key)`` keeps."""
    return [
        f"{path.name}:{line}: {key}"
        for path, key, line in unreachable()
        if path in PACKAGE and not key.split(".")[-1].startswith("_") and filter(path, key)
    ]


def test_every_linalg_exact_function_has_a_package_caller():
    # test-only kernels, such as the reference oracles, belong under tests/;
    # classes count as functions
    assert unreached_public(lambda path, key: path.name == "linalg_exact.py" and "." not in key) == []


def test_every_arith_op_has_a_package_caller():
    # each public op of the two backends, arith's exact one and floatarith's
    # float one, is reached from the pipeline; an op that only a test
    # oracle calls belongs in the oracle
    backends = {("arith.py", "_Exact"), ("floatarith.py", "_Float")}
    assert unreached_public(lambda path, key: (path.name, key.split(".")[0]) in backends and "." in key) == []


def test_every_public_function_and_class_is_read():
    # a public function or class that only tests read is test scaffolding
    # and lives under tests/; library API that the pipeline does not run is
    # named in README.md
    assert unreached_public(lambda path, key: "." not in key) == []


def test_every_public_method_is_read():
    # the same rule for methods and method aliases: one that the pipeline
    # never reaches by name is dead code or test scaffolding
    assert unreached_public(lambda path, key: "." in key) == []


def test_reachability_ignores_module_attributes_locals_and_dead_cycles(tmp_path):
    # np.linalg.inv and a local named inv read no inv, and ex.mmul reads
    # linalg_exact's mmul; a method that only reads itself, such as a copy
    # that calls .copy(), stays unreached, as does an alias nothing reads
    module = tmp_path / "mod.py"
    module.write_text(
        "import numpy as np\n"
        "from . import linalg_exact as ex\n"
        "\n"
        "\n"
        "def f(a, b):\n"
        "    inv = 2\n"
        "    return np.linalg.inv(a) * inv + ex.mmul(a, b)\n"
        "\n"
        "\n"
        "class C:\n"
        "    def copy(self):\n"
        "        return self.ops.copy()\n"
        "\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "    alias = staticmethod(ex.mcopy)\n"
        "\n"
        "\n"
        "C()\n",
        encoding="utf-8",
    )
    units = unit_table([module])
    assert units[module, "f"][2] == {"np", "ex", "linalg_exact.mmul"}
    assert units[module, "C.alias"][2] == {"staticmethod", "ex", "linalg_exact.mcopy"}
    live = reached(units, {(module, None)})
    assert sorted(key for _, key in units.keys() - live) == ["C.alias", "C.copy", "f"]


def dataclass_fields(path):
    """``module.Class.field`` of each field of the module's dataclasses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.stem}.{node.name}.{m.target.id}"
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in (getattr(d, "id", None), getattr(getattr(d, "func", None), "id", None)) for d in node.decorator_list)
        for m in node.body
        if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)
    ]


def unread_fields():
    """Each dataclass field of the package that no unit the pipeline reaches
    reads as an attribute; README.md's words are roots here, not reads."""
    units, live = pipeline()
    reads = set().union(*(units[u][2] for u in live))
    return [name for path in PACKAGE for name in dataclass_fields(path) if "." + name.rsplit(".", 1)[1] not in reads]


# dataclass fields that only tests read, and why each stays
UNREAD_FIELDS_KEPT = {
    "higgs.StabilityReport.witness_subspace": "the verdict's evidence, which tests pair with theta (assert_witness_pairing)",
    "higgs.StabilityReport.witness_slope": "the slope of that evidence, checked beside it",
    "higgs.StabilityReport.exhaustive": "marks a verdict of an exhaustive search, the aim of ROADMAP item 3",
}


def test_every_dataclass_field_is_read():
    # a field that the pipeline stores and never reads is a duplicate or
    # dead data; the kept ones must stay unread, or they leave the table
    hits = set(unread_fields())
    assert sorted(hits - UNREAD_FIELDS_KEPT.keys()) == []
    assert sorted(hits & UNREAD_FIELDS_KEPT.keys()) == sorted(UNREAD_FIELDS_KEPT)


def unread_parameters(tree):
    """Named parameters of module-level functions that their body never reads."""
    hits = []
    for f in tree.body:
        if isinstance(f, ast.FunctionDef):
            args = f.args.posonlyargs + f.args.args + f.args.kwonlyargs
            read = set().union(*(names_read(node) for node in f.body))
            hits += [(f.name, a.arg, f.lineno) for a in args if a.arg not in read]
    return hits


def test_every_parameter_is_read():
    # an option no body reads is an option no caller can use
    hits = [
        f"{path.name}:{line}: {name}({arg})"
        for path in sorted((SRC / "starquiver").glob("*.py"))
        for name, arg, line in unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert hits == []


def unset_options(trees, package):
    """Defaulted parameters of the package's functions and methods (no
    dunders) that no call in ``trees`` passes, by keyword or by position.

    Calls match definitions by name only, so a call of another function of
    the same name counts too: the scan can miss an unset option, never flag
    a set one.  A call with ``*args`` passes every position and one with
    ``**kwargs`` every keyword."""
    keywords, positions = {}, {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            positions[name] = max(positions.get(name, 0), float("inf") if starred else len(call.args))
            keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
    hits = []
    for path, tree in trees.items():
        if not path.is_relative_to(package):
            continue
        for scope in [tree] + [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]:
            for f in scope.body:
                if not isinstance(f, ast.FunctionDef) or f.name.startswith("__"):
                    continue
                passed = keywords.get(f.name, set())
                if None in passed:
                    continue
                # a method's first parameter is its receiver, not an argument
                static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
                shift = 0 if scope is tree or static else 1
                a = f.args
                params = a.posonlyargs + a.args
                first = len(params) - len(a.defaults)
                hits += [
                    f"{path.name}:{f.lineno}: {f.name}({p.arg})"
                    for k, p in enumerate(params[first:], start=first)
                    if p.arg not in passed and positions.get(f.name, 0) <= k - shift
                ]
                hits += [
                    f"{path.name}:{f.lineno}: {f.name}({p.arg})"
                    for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None and p.arg not in passed
                ]
    return hits


# options that only tests set, and why each stays
UNSET_OPTIONS_KEPT = {
    "cli.py: main(argv)": "tests drive the CLI in process; the console script passes none",
    "jsonio.py: higgs_from_json(check)": "the round-trip property decodes tuples that fail validation",
}


def test_every_option_is_set():
    # an option that every caller of the package or its benchmark leaves at
    # its default is a constant: each one doubles the configurations the
    # tests must cover, and a test setting it does not make it an option
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + BENCH}
    hits = {"{}:{}".format(*hit.split(":")[::2]): hit for hit in unset_options(trees, SRC)}
    assert sorted(hit for key, hit in hits.items() if key not in UNSET_OPTIONS_KEPT) == []
    assert sorted(hits.keys() & UNSET_OPTIONS_KEPT.keys()) == sorted(UNSET_OPTIONS_KEPT)


def mode_comparisons(tree):
    """Lines comparing a ``mode`` name or attribute with == or !=."""

    def is_mode(node):
        return getattr(node, "id", None) == "mode" or getattr(node, "attr", None) == "mode"

    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(is_mode(x) for x in [node.left, *node.comparators])
    ]


def test_mode_forks_stay_in_arith():
    # arith chooses between the entry formats; a new exact-only or float-only
    # path elsewhere must come through a backend operation, not a mode test
    counts = {
        path.stem: len(mode_comparisons(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted((SRC / "starquiver").glob("*.py"))
        if path.stem != "arith"
    }
    assert {k: v for k, v in counts.items() if v} == {"cli": 1, "dsolve": 1, "higgs": 1, "jsonio": 2, "spectral": 1}


def test_stability_verdict_draws_no_random_vectors():
    # the verdict's search draws seeded random vectors only through
    # _witness_candidates, whose first proper closure leads its candidates
    tree = ast.parse((SRC / "starquiver" / "higgs.py").read_text(encoding="utf-8"))
    callers = [
        f.name
        for f in tree.body
        if isinstance(f, ast.FunctionDef)
        for node in ast.walk(f)
        if isinstance(node, ast.Call) and "default_rng" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert callers == ["_witness_candidates"]


def test_one_kronecker_product_and_no_numpy_kron():
    # np.kron costs tens of microseconds a call on the solver's small
    # matrices; floatarith.kron is the package's one Kronecker product
    defined, numpy_kron = [], []
    for path in sorted((SRC / "starquiver").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and "kron" in node.name.lower():
                defined.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Attribute) and node.attr == "kron":
                numpy_kron.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                numpy_kron += [f"{path.name}:{node.lineno}" for a in node.names if a.name == "kron"]
    assert defined == ["floatarith.kron"]
    assert numpy_kron == []


def fraction_free_steps(tree):
    """Floor divisions of a difference of two products, ``(p*x - f*y) // prev``:
    the row update of a fraction-free elimination."""

    def is_product(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)

    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.FloorDiv)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Sub)
        and is_product(node.left.left)
        and is_product(node.left.right)
    ]


def test_one_elimination_loop():
    # linalg_exact.echelon is the package's one forward elimination; rank,
    # solve, int_kernel, the refinement's flag inverses and the anchored
    # zero-sum solve all run it, and none keeps a second copy of the loop
    # beside it
    assert owners_of(fraction_free_steps) == ["linalg_exact.echelon"]


def pivot_divisions(f):
    """Floor divisions in function ``f`` by a pivot entry: by a subscript
    ``row[pivots[k]]`` indexed by another subscript, or by a name bound to
    one in ``f``."""

    def is_pivot_entry(node):
        return isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Subscript)

    bound = {
        t.id
        for node in ast.walk(f)
        if isinstance(node, ast.Assign) and is_pivot_entry(node.value)
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    return [
        node
        for node in ast.walk(f)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.FloorDiv)
        and (is_pivot_entry(node.right) or (isinstance(node.right, ast.Name) and node.right.id in bound))
    ]


def clearing_steps(tree):
    """``x.numerator * (d // x.denominator)``: a rational written as an
    integer over the denominator d."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and getattr(node.left, "attr", None) == "numerator"
        and isinstance(node.right, ast.BinOp)
        and isinstance(node.right.op, ast.FloorDiv)
        and getattr(node.right.right, "attr", None) == "denominator"
    ]


def owners_of(find):
    """``module.function`` once for each node ``find`` returns in the body
    of a package function."""
    owners = []
    for path in sorted((SRC / "starquiver").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                owners += [f"{path.stem}.{node.name}"] * len(find(node))
    return owners


def calls_of(name):
    """A finder of the calls of ``name`` (bare or as a module attribute)."""

    def find(f):
        return [
            node
            for node in ast.walk(f)
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]

    return find


def identity_solves(f):
    """Calls of ``solve`` whose right-hand side calls ``meye`` or ``eye``:
    an inverse written as a linear solve."""
    return [node for node in calls_of("solve")(f) if len(node.args) > 1 and (calls_of("meye")(node.args[1]) or calls_of("eye")(node.args[1]))]


def test_one_back_substitution():
    # linalg_exact.back_substitute is the package's one division by the
    # echelon pivots; solve, int_kernel, int_inverse (the refinement's
    # d·Q^-1 and the Sylvester inverses of the Hensel lifts) and the
    # anchored zero-sum solve read their answers off it, and nothing else
    # calls it
    assert owners_of(pivot_divisions) == ["linalg_exact.back_substitute"]
    assert sorted(owners_of(calls_of("back_substitute"))) == [
        "dsolve._solve_anchored",
        "linalg_exact.int_inverse",
        "linalg_exact.int_kernel",
        "linalg_exact.solve",
    ]


def test_one_integer_inverse():
    # linalg_exact.int_inverse is the package's one exact inverse; no
    # function inverts by solving against the identity
    assert owners_of(identity_solves) == []


def test_one_clearing_rule():
    # linalg_exact.clear writes rationals as integers over one denominator;
    # spectral._integer_form keeps its own step because it scales level j
    # by s^j, which no single denominator does
    assert owners_of(clearing_steps) == ["linalg_exact.clear", "spectral._integer_form"]


squarefree_tests = calls_of("_discriminant_vanishes")  # the squarefree test


def doubled_comparisons(f):
    """Comparisons with ``2 * x`` on one side, as the residue-sum inequality
    2r <= sum of gamma_1 is written."""

    def doubled(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and getattr(node.left, "value", None) == 2

    return [node for node in ast.walk(f) if isinstance(node, ast.Compare) and any(map(doubled, [node.left, *node.comparators]))]


def first_flag_dimensions(f):
    """``x.rank - ...``: a rank minus a flag step, gamma_1 = r - n_1."""
    return [
        node
        for node in ast.walk(f)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and getattr(node.left, "attr", None) == "rank"
    ]


def test_one_squarefree_walk():
    # the walk of spectral._factor over z0 = -1, -2, ... is the one place
    # that evaluates the discriminant; the pool certificates of _certify
    # only read factor degrees
    assert owners_of(squarefree_tests) == ["spectral._factor"]


def test_one_residue_sum_inequality():
    # combinat.ds_feasible owns 2r <= sum of gamma_1; type-check prints and
    # reports its FeasibilityReport.  The degree loop of
    # spectral._distinct_degree compares a doubled degree with len(f)
    assert owners_of(doubled_comparisons) == ["combinat.ds_feasible", "spectral._distinct_degree"]
    assert first_flag_dimensions(ast.parse((SRC / "starquiver" / "cli.py").read_text(encoding="utf-8"))) == []


def test_one_poisson_check():
    # poisson.check is the one Poisson check: the brackets of its Jacobi
    # triples, its commutativity grid and its Hamiltonian count have no other
    # caller in the package, its entry sweeps share their kernel only with
    # check_entry_bracket, and poisson check imports nothing else of poisson
    for name in ("bracket_with", "check_commutativity", "independent_hamiltonian_count"):
        assert set(owners_of(calls_of(name))) == {"poisson.check"}, name
    assert set(owners_of(calls_of("entry_bracket_residuals"))) == {"poisson.check", "poisson.check_entry_bracket"}
    cli = ast.parse((SRC / "starquiver" / "cli.py").read_text(encoding="utf-8"))
    imported = [a.name for node in ast.walk(cli) if isinstance(node, ast.ImportFrom) and node.module == "poisson" for a in node.names]
    assert imported == ["check"]


def observable_calls(f):
    """Calls that build an observable, a zero gradient or a generic bracket."""
    return [node for name in ("trace_power_observable", "entry_observable", "bracket", "zero_gradient") for node in calls_of(name)(f)]


def entry_coefficients(f):
    """Divisions of the constant 1: the entry closed form's 1 / (z - x_m)."""
    return [node for node in ast.walk(f) if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and getattr(node.left, "value", None) == 1]


def test_stacked_bracket_kernels():
    # check_commutativity and entry_bracket_residuals form their slots in one
    # stacked pass, with no observable, zero gradient or generic bracket per
    # term; poisson._entry_slots is the one home of the entry closed form,
    # which entry_observable's gradient and the sweep both read
    tree = ast.parse((SRC / "starquiver" / "poisson.py").read_text(encoding="utf-8"))
    kernels = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    for name in ("check_commutativity", "entry_bracket_residuals"):
        assert observable_calls(kernels[name]) == [], name
    assert owners_of(entry_coefficients) == ["poisson._entry_slots"]
    readers = {"poisson.entry_observable", "poisson.grad", "poisson.entry_bracket_residuals", "poisson.rows"}
    assert set(owners_of(calls_of("_entry_slots"))) == readers


def polynomial_entries(f):
    """Calls of the dense polynomial product or evaluation: an entry of M
    built, or read, over Z[z]."""
    return calls_of("paddmul")(f) + calls_of("peval")(f)


def test_char_poly_forms_integer_matrices():
    # char_poly forms s M(t) as an integer matrix at each node; there is no
    # matrix over Z[z] and no kernel that evaluates one
    tree = ast.parse((SRC / "starquiver" / "spectral.py").read_text(encoding="utf-8"))
    kernels = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    assert "_zx_charpoly" not in kernels
    assert polynomial_entries(kernels["char_poly"]) == []


SPECTRAL_CHAIN = ("char_poly", "vanishing_orders", "spectral_poly", "is_integral")


def test_one_spectral_chain():
    # cli._spectral_appendix runs the exact spectral cross-check for both
    # bridge --hitchin and ds verify --hitchin; dsolve.verify certifies only
    # the tuple it is given and has no spectral option
    for name in SPECTRAL_CHAIN:
        assert owners_of(calls_of(name)) == ["cli._spectral_appendix"], name
    dsolve = ast.parse((SRC / "starquiver" / "dsolve.py").read_text(encoding="utf-8"))
    imported = {a.name for node in ast.walk(dsolve) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert imported.isdisjoint(SPECTRAL_CHAIN)
    verify = next(f for f in dsolve.body if isinstance(f, ast.FunctionDef) and f.name == "verify")
    assert [a.arg for a in verify.args.args + verify.args.kwonlyargs] == ["solution", "instance"]


def second_preservation_checks(f):
    """A ``try``, a ``BridgeError`` built, or a ``solve`` given a third
    argument (a tolerance): a test of strong preservation besides
    ``HiggsTuple.validate``."""
    tries = [node for node in ast.walk(f) if isinstance(node, ast.Try)]
    return tries + calls_of("BridgeError")(f) + [node for node in calls_of("solve")(f) if len(node.args) + len(node.keywords) > 2]


def solve_parameters(cls):
    """The parameters after ``self`` of a backend class's ``solve`` (a
    catch-all as ``*name``), or the source of the value it is bound to."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "solve":
            args = node.args
            return [a.arg for a in args.args[1:] + args.kwonlyargs] + [f"*{v.arg}" for v in (args.vararg, args.kwarg) if v]
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["solve"]:
            return ast.unparse(node.value)
    return None


def test_one_preservation_rule():
    # HiggsTuple.validate is the one test of strong preservation:
    # higgs_to_quiver reads the corestrictions of a validated tuple with no
    # try, no BridgeError and no tolerance, and neither backend's solve
    # takes a tolerance
    higgs = ast.parse((SRC / "starquiver" / "higgs.py").read_text(encoding="utf-8"))
    convert = next(f for f in higgs.body if isinstance(f, ast.FunctionDef) and f.name == "higgs_to_quiver")
    assert second_preservation_checks(convert) == []
    backends = {}
    for name in ("arith", "floatarith"):
        tree = ast.parse((SRC / "starquiver" / f"{name}.py").read_text(encoding="utf-8"))
        backends.update({c.name: c for c in tree.body if isinstance(c, ast.ClassDef)})
    assert solve_parameters(backends["_Float"]) == ["a", "b"]
    assert solve_parameters(backends["_Exact"]) in (["a", "b"], "staticmethod(ex.solve)")


def late_raises(f):
    """``raise`` statements of ``f`` at or after its first top-level ``for``
    loop (the node loop of ``char_poly``), and the conditional expressions in
    the assignments of the name that loop's ``range(name + 1)`` reads."""
    loop = next(i for i, node in enumerate(f.body) if isinstance(node, ast.For))
    raises = [node for stmt in f.body[loop:] for node in ast.walk(stmt) if isinstance(node, ast.Raise)]
    count = f.body[loop].iter.args[0].left.id
    assigned = [node.value for node in ast.walk(f) if isinstance(node, ast.Assign) and count in [getattr(t, "id", None) for t in node.targets]]
    conditional = [node for value in assigned for node in ast.walk(value) if isinstance(node, ast.IfExp)]
    return raises, len(assigned), conditional


def none_frames(f):
    """Calls in ``f`` given a literal ``None``, such as ``frames.append(None)``."""
    return [node for node in ast.walk(f) if isinstance(node, ast.Call) and any(getattr(a, "value", 0) is None for a in node.args)]


def test_one_path_through_the_exact_chain():
    # each fact of the exact chain is decided once: char_poly refuses a
    # nonzero residue sum before any node and counts its nodes one way;
    # _refine_at takes every class, zero classes too, through its one
    # general path; the tuple's validation refuses a wrong point count
    # for flags_from_solution; parabolic_slope reads each flag step's
    # dimension from the type, ranking only w and [F w]
    trees = {name: ast.parse((SRC / "starquiver" / f"{name}.py").read_text(encoding="utf-8")) for name in ("spectral", "dsolve", "higgs")}
    kernels = {f.name: f for tree in trees.values() for f in tree.body if isinstance(f, ast.FunctionDef)}
    assert late_raises(kernels["char_poly"]) == ([], 1, [])
    assert none_frames(kernels["_refine_at"]) == calls_of("meye")(kernels["_refine_at"]) == []
    assert calls_of("BridgeError")(kernels["flags_from_solution"]) == []
    assert len(calls_of("rank")(kernels["parabolic_slope"])) <= 2


def package_imports(tree):
    """Stems of the package modules that the imports of ``tree`` name,
    function-local ones included: ``from .m import x``, ``from . import m``
    and the same written from ``starquiver``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("starquiver")):
            module = (node.module or "").removeprefix("starquiver").lstrip(".")
            out += [module] if module else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            out += [a.name.removeprefix("starquiver.") for a in node.names if a.name.startswith("starquiver.")]
    return out


def class_fields(cls):
    """The annotated names in the body of class ``cls``."""
    return [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]


def guarded_raises(f, name):
    """``raise`` statements of ``f`` inside an ``if`` whose test reads ``name``."""
    found = {}
    for node in ast.walk(f):
        if isinstance(node, ast.If) and name in {n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)}:
            found.update((id(r), r) for stmt in node.body for r in ast.walk(stmt) if isinstance(r, ast.Raise))
    return list(found.values())


def test_one_home_per_certification_fact():
    # irreducible certifies from its word closure and searches no invariant
    # subspace, which stability_verdict alone does; dsolve owns the rank
    # profile, so only cli's spectral appendix imports spectral; a nilpotent
    # class checks its power ranks by the one chain rule
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    higgs = {node.name: node for node in trees["higgs"].body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert calls_of("_witness_candidates")(higgs["irreducible"]) == calls_of("_proper_closures")(higgs["irreducible"]) == []
    assert class_fields(higgs["IrreducibilityCertificate"]) == ["irreducible", "words", "elements"]
    assert [stem for stem, tree in trees.items() if "spectral" in package_imports(tree)] == ["cli"]
    nilpotent = next(node for node in trees["combinat"].body if isinstance(node, ast.ClassDef) and node.name == "NilpotentClass")
    post_init = next(node for node in nilpotent.body if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
    assert len(guarded_raises(post_init, "seq")) == 1


def test_the_guards_see_the_former_copies():
    # the shapes the two guards look for, as the former bareiss and
    # _integer_rows wrote them
    bareiss = ast.parse("def f(row, pivots, k, acc):\n    p = row[pivots[k]]\n    return [x // p for x in acc]\n")
    integer_rows = ast.parse("def g(row, den):\n    return [x.numerator * (den // x.denominator) for x in row]\n")
    assert len(pivot_divisions(bareiss.body[0])) == 1
    assert len(clearing_steps(integer_rows)) == 1
    # the pool walk of the former _certify, and the inequality as the former
    # type-check computed it
    certify = ast.parse("def c(f, vanishing):\n    if _discriminant_vanishes(f):\n        vanishing += 1\n")
    type_check = ast.parse("gamma1_sum = sum(sigma.rank - m[0] for m in sigma.multiplicities)\nfeasible = 2 * sigma.rank <= gamma1_sum\n")
    assert len(squarefree_tests(certify.body[0])) == 1
    assert len(doubled_comparisons(type_check)) == len(first_flag_dimensions(type_check)) == 1
    # the inverses of the former _sylvester_inverse and _refine_at
    sylvester = ast.parse("def s(g, h):\n    return ex.clear(ex.solve(_sylvester(g, h), ex.meye(len(g) + len(h) - 2)))\n")
    refine = ast.parse("def r(red, piv, d):\n    adj = ex.back_substitute(red, piv, d, [[-v for v in row[r:]] for row in red])\n")
    assert len(identity_solves(sylvester.body[0])) == 1
    assert len(calls_of("back_substitute")(refine.body[0])) == 1
    # the Jacobi left-hand side of the former poisson check handler
    handler = ast.parse("def cmd_poisson_check(args):\n    lhs = a.bracket_with(b.bracket_with(c, jmat), jmat).value_at(v)\n")
    assert len(calls_of("bracket_with")(handler.body[0])) == 2
    # the former per-observable commutativity check, the former sweep's rows
    # and the former entry gradient, which held its own closed form
    commutativity = ast.parse(
        "def check_commutativity(rep, points, t, t_prime, z, w):\n"
        "    it = trace_power_observable(rep.quiver, points, t, z, selfcheck=False)\n"
        "    it2 = trace_power_observable(rep.quiver, points, t_prime, w, selfcheck=False)\n"
        "    return abs(bracket(it, it2, rep))\n"
    )
    rows = ast.parse("def rows(x):\n    return [entry_observable(q, points, x, i, j, selfcheck=False).grad(rep) for i in range(r) for j in range(r)]\n")
    grad = ast.parse("def grad(rep):\n    out = zero_gradient(quiver)\n    c = 1.0 / (zc - complex(points[m]))\n")
    assert len(observable_calls(commutativity.body[0])) == 3
    assert len(observable_calls(rows.body[0])) == 1
    assert len(observable_calls(grad.body[0])) == len(entry_coefficients(grad.body[0])) == 1
    # the former Z[z] matrix of char_poly
    zm = ast.parse("def char_poly(h):\n    for x, entry in zip(row, zrow):\n        ex.paddmul(entry, [x], weight)\n")
    assert len(polynomial_entries(zm.body[0])) == 1
    # the former inline cross-check of dsolve.verify
    chain = ast.parse("def verify(solution, instance, hitchin=False):\n    hp = char_poly(h)\n    hitchin_report = vanishing_orders(hp, sigma)\n")
    assert len(calls_of("char_poly")(chain.body[0])) == len(calls_of("vanishing_orders")(chain.body[0])) == 1
    # the former corestriction check of higgs_to_quiver, and the former
    # solves with a tolerance
    convert = ast.parse(
        "def higgs_to_quiver(h):\n"
        "    try:\n"
        "        gj.append(o.solve(prev, cur, h.tol))\n"
        "    except ValueError as e:\n"
        "        raise BridgeError(f'point {i}: flag step {j} is not preserved strongly ({e})') from None\n"
    )
    assert len(second_preservation_checks(convert.body[0])) == 3
    backends = ast.parse(
        "class _Float:\n    def solve(self, a, b, tol):\n        pass\n"
        "class _Exact:\n    def solve(self, a, b, *_):\n        return ex.solve(a, b)\n"
    )
    assert [solve_parameters(c) for c in backends.body] == [["a", "b", "tol"], ["a", "b", "*_"]]
    # the former second decisions of the exact chain: char_poly's node count
    # by the residue sum and its degree check after interpolation, the zero
    # class frames of _refine_at, the up-front count of flags_from_solution
    # and the per-step ranks of parabolic_slope
    nodes = ast.parse(
        "def char_poly(h):\n"
        "    top = r * (n - 1) if any(sum(x) for row in entries for x in row) else max(0, r * (n - 2))\n"
        "    for t in range(top + 1):\n"
        "        values.append(t)\n"
        "    for j, v in enumerate(zip(*values), start=1):\n"
        "        if p and len(p) - 1 > bound:\n"
        "            raise ExactnessRequired(f'level {j} coefficient has degree {len(p) - 1} > {bound}')\n"
    )
    raises, count, conditional = late_raises(nodes.body[0])
    assert (len(raises), count, len(conditional)) == (1, 1, 1)
    zero = ast.parse(
        "def _refine_at(solution, instance, nested, den):\n"
        "    if not c.rank_sequence:\n"
        "        frames.append(None)\n"
        "    if f is None:\n"
        "        conjugators.append(ex.meye(r))\n"
    )
    assert len(none_frames(zero.body[0])) == len(calls_of("meye")(zero.body[0])) == 1
    flags = ast.parse("def flags_from_solution(solution, sigma):\n    if len(solution.matrices) != sigma.n_points:\n        raise BridgeError(_COUNT_MESSAGE)\n")
    assert len(calls_of("BridgeError")(flags.body[0])) == 1
    slope = ast.parse(
        "def parabolic_slope(h, w=None):\n"
        "    if o.rank(w) != k:\n"
        "        raise BridgeError('subobject basis is rank deficient')\n"
        "    inter = [k] + [o.rank(step) + k - o.rank(o.from_columns(o.columns(step) + o.columns(w))) for step in h.flags[i]] + [0]\n"
    )
    assert len(calls_of("rank")(slope.body[0])) == 3
    # the former witness of irreducible and its certificate field, the
    # former home of the rank profile, and the three chain checks a
    # nilpotent class made
    witness = ast.parse(
        "def irreducible(mats, mode='float'):\n"
        "    witness = next(_proper_closures(elements, ([v] for v in _witness_candidates(mats, mode)), o), None)\n"
    )
    assert len(calls_of("_witness_candidates")(witness.body[0])) == len(calls_of("_proper_closures")(witness.body[0])) == 1
    cert = ast.parse("class IrreducibilityCertificate:\n    irreducible: bool\n    words: list\n    invariant_subspace: object = None\n")
    assert "invariant_subspace" in class_fields(cert.body[0])
    imports = ast.parse("from .spectral import rank_profile\nfrom . import spectral\nimport starquiver.spectral\nfrom starquiver.spectral import char_poly\n")
    assert package_imports(imports) == ["spectral"] * 4
    chain = ast.parse(
        "def __post_init__(self):\n"
        "    if self.rank < 1:\n"
        "        raise ValueError('rank must be positive')\n"
        "    if seq:\n"
        "        if seq[0] >= self.rank:\n"
        "            raise ValueError('a nilpotent class has first power rank below the rank')\n"
        "        if any(a <= b for a, b in zip(seq, seq[1:])) or seq[-1] <= 0:\n"
        "            raise ValueError('power ranks must be strictly decreasing and positive')\n"
        "        if not chain_simple(self.rank, seq):\n"
        "            raise ValueError('rank differences must be nonincreasing (not a valid Jordan type)')\n"
    )
    assert len(guarded_raises(chain.body[0], "seq")) == 3
