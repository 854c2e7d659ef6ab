"""Source hygiene: no unused imports, unread private names or parameters,
no public definition, dataclass field or option that the pipeline leaves
unreached, subcommands that load only the layers they run, no sympy in the
package and numpy its one runtime dependency, one home per test helper,
and one home per fact, kept as the rows of ``GUARDS`` below.  Each file is
parsed once."""

import ast
import collections
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from common import FIXTURES, GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = sorted((SRC / "starquiver").glob("*.py"))
TESTS = sorted((SRC.parent / "tests").glob("*.py"))
# the benchmark harness, its tests left out
BENCH = [p for p in sorted((SRC.parent / "perfbench").glob("*.py")) if not p.name.startswith("test_") and p.name != "conftest.py"]


@functools.cache
def parsed(path):
    """The syntax tree of the file at ``path``, parsed once per session."""
    return ast.parse(path.read_text(encoding="utf-8"))


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
    for scope, imports in scoped_imports(parsed(path)).items():
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for node in imports:
            names = {(alias.asname or alias.name).split(".")[0] for alias in node.names}
            hits += [f"{path.name}:{node.lineno}: {name}" for name in sorted(names - used)]
    return hits


def test_no_unused_imports():
    hits = [hit for path in PACKAGE for hit in unused_imports(path)]
    assert hits == []


def test_no_unused_test_imports():
    hits = [hit for path in TESTS for hit in unused_imports(path)]
    assert hits == []


def test_one_home_per_test_helper():
    # a helper or strategy defined in two test modules is one fact kept
    # twice: the shared one lives in common or conftest (pytest names a test
    # by its module, so test functions are left out)
    homes = collections.defaultdict(list)
    for path in TESTS:
        for node in parsed(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("test_"):
                homes[node.name].append(path.name)
    assert {name: paths for name, paths in homes.items() if len(paths) > 1} == {}


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
    trees = {path.name: parsed(path) for path in PACKAGE}
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
    hits = {path.name: sympy_imports(parsed(path)) for path in PACKAGE}
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
    tree = parsed(path)
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
    return [
        f"{path.stem}.{node.name}.{m.target.id}"
        for node in parsed(path).body
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
        for path in PACKAGE
        for name, arg, line in unread_parameters(parsed(path))
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
    trees = {path: parsed(path) for path in PACKAGE + BENCH}
    hits = {"{}:{}".format(*hit.split(":")[::2]): hit for hit in unset_options(trees, SRC)}
    assert sorted(hit for key, hit in hits.items() if key not in UNSET_OPTIONS_KEPT) == []
    assert sorted(hits.keys() & UNSET_OPTIONS_KEPT.keys()) == sorted(UNSET_OPTIONS_KEPT)


# ---------------------------------------------------------------------------
# One home per fact.  Each row of GUARDS names a fact, a finder of the code
# that states it, the functions that own it (none for "nowhere") and the
# former copies that the finder must see.  A new one-home fact is a new row,
# with ``calls_of`` wherever it can say the fact; a finder of its own only
# where it cannot.


def outline(tree, module):
    """({id(node): owner}, {owner: node}) over ``tree``.  The owner of a node
    is ``module.Class.function``, the qualified name of the innermost class or
    function that holds it (a definition holds itself), else ``module``."""
    home, defs = {}, {module: tree}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}"
                defs[inner] = child
            home[id(child)] = inner
            visit(child, inner)

    visit(tree, module)
    return home, defs


@functools.cache
def package_outline(path):
    return outline(parsed(path), path.stem)


def owners(find, scope=""):
    """The sorted owners of the nodes that ``find`` reports in the package,
    run on the node of ``scope`` (a module or a qualified name) or on each
    module."""
    out = []
    for path in PACKAGE:
        home, defs = package_outline(path)
        if scope.split(".")[0] in ("", path.stem):
            out += [home[id(node)] for node in find(defs[scope or path.stem])]
    return sorted(out)


def calls_of(*names):
    """A finder of the calls of any of ``names`` (bare or as an attribute)."""
    return lambda f: [
        n for n in ast.walk(f) if isinstance(n, ast.Call) and {getattr(n.func, "id", None), getattr(n.func, "attr", None)} & set(names)
    ]


def binops(f, op, test):
    """The binary operations ``op`` in ``f`` for which ``test(left, right)`` holds."""
    return [n for n in ast.walk(f) if isinstance(n, ast.BinOp) and isinstance(n.op, op) and test(n.left, n.right)]


def is_op(node, op):
    return isinstance(node, ast.BinOp) and isinstance(node.op, op)


def mode_comparisons(f):
    """Comparisons of a ``mode`` name or attribute with == or !=."""
    compares = [n for n in ast.walk(f) if isinstance(n, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in n.ops)]
    return [n for n in compares if "mode" in {getattr(x, "id", None) or getattr(x, "attr", None) for x in [n.left, *n.comparators]}]


def definitions(word):
    """A finder of the functions whose name holds ``word``, in any case."""
    return lambda f: [n for n in ast.walk(f) if isinstance(n, ast.FunctionDef) and word in n.name.lower()]


def numpy_kron(f):
    """``.kron`` read as an attribute, and ``kron`` imported from numpy."""
    attrs = [n for n in ast.walk(f) if isinstance(n, ast.Attribute) and n.attr == "kron"]
    return attrs + [a for n in ast.walk(f) if isinstance(n, ast.ImportFrom) and n.module == "numpy" for a in n.names if a.name == "kron"]


def fraction_free_steps(f):
    """``(p*x - f*y) // prev``: the row update of a fraction-free elimination."""
    return binops(f, ast.FloorDiv, lambda a, b: is_op(a, ast.Sub) and is_op(a.left, ast.Mult) and is_op(a.right, ast.Mult))


def pivot_divisions(f):
    """Floor divisions by a pivot entry: by a subscript ``row[pivots[k]]``
    indexed by another subscript, or by a name bound to one in ``f``."""

    def is_pivot(node):
        return isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Subscript)

    bound = {t.id for n in ast.walk(f) if isinstance(n, ast.Assign) and is_pivot(n.value) for t in n.targets if isinstance(t, ast.Name)}
    return binops(f, ast.FloorDiv, lambda a, b: is_pivot(b) or getattr(b, "id", None) in bound)


def identity_solves(f):
    """Calls of ``solve`` whose right-hand side calls ``meye`` or ``eye``: an
    inverse written as a linear solve."""
    return [n for n in calls_of("solve")(f) if len(n.args) > 1 and calls_of("meye", "eye")(n.args[1])]


def clearing_steps(f):
    """``x.numerator * (d // x.denominator)``: a rational as an integer over d."""
    def test(a, b):
        return getattr(a, "attr", None) == "numerator" and is_op(b, ast.FloorDiv) and getattr(b.right, "attr", None) == "denominator"

    return binops(f, ast.Mult, test)


def doubled_comparisons(f):
    """Comparisons with ``2 * x`` on one side, as 2r <= sum of gamma_1 is written."""
    sides = [(n, x) for n in ast.walk(f) if isinstance(n, ast.Compare) for x in [n.left, *n.comparators]]
    return list({id(n): n for n, x in sides if is_op(x, ast.Mult) and getattr(x.left, "value", None) == 2}.values())


def first_flag_dimensions(f):
    """``x.rank - ...``: a rank minus a flag step, gamma_1 = r - n_1."""
    return binops(f, ast.Sub, lambda a, b: getattr(a, "attr", None) == "rank")


def imports_of(module, *besides):
    """A finder of the names imported from the package module ``module`` (of
    ``module`` itself for ``from . import module``), ``besides`` left out."""

    def find(f):
        out = [a for n in ast.walk(f) if isinstance(n, ast.Import) for a in n.names if a.name == f"starquiver.{module}"]
        for n in ast.walk(f):
            if isinstance(n, ast.ImportFrom) and (n.level or (n.module or "").startswith("starquiver")):
                source = (n.module or "").removeprefix("starquiver").lstrip(".")
                out += [a for a in n.names if (source or a.name) == module and a.name not in besides]
        return out

    return find


def entry_coefficients(f):
    """Divisions of the constant 1: the entry closed form's 1 / (z - x_m)."""
    return binops(f, ast.Div, lambda a, b: getattr(a, "value", None) == 1)


def second_preservation_checks(f):
    """A ``try``, a ``BridgeError`` built, or a ``solve`` given a third
    argument (a tolerance): a test of strong preservation besides
    ``HiggsTuple.validate``."""
    tries = [n for n in ast.walk(f) if isinstance(n, ast.Try)]
    return tries + calls_of("BridgeError")(f) + [n for n in calls_of("solve")(f) if len(n.args) + len(n.keywords) > 2]


def late_checks(f):
    """In a function whose first top-level loop runs ``range(name + 1)``, the
    node loop of ``char_poly``: the raises from that loop on, each assignment
    of ``name`` after the first, and the conditional expressions in the first."""
    loop = next(i for i, n in enumerate(f.body) if isinstance(n, ast.For))
    count = f.body[loop].iter.args[0].left.id
    assigned = [n.value for n in ast.walk(f) if isinstance(n, ast.Assign) and count in [getattr(t, "id", None) for t in n.targets]]
    raises = [n for stmt in f.body[loop:] for n in ast.walk(stmt) if isinstance(n, ast.Raise)]
    return raises + assigned[1:] + [n for n in ast.walk(assigned[0]) if isinstance(n, ast.IfExp)]


def none_frames(f):
    """Calls given a literal ``None``, such as ``frames.append(None)``."""
    return [n for n in ast.walk(f) if isinstance(n, ast.Call) and any(getattr(a, "value", 0) is None for a in n.args)]


def raises_under(name):
    """A finder of the ``raise`` statements inside an ``if`` whose test reads ``name``."""

    def find(f):
        tests = [n for n in ast.walk(f) if isinstance(n, ast.If) and name in {x.id for x in ast.walk(n.test) if isinstance(x, ast.Name)}]
        return list({id(r): r for n in tests for stmt in n.body for r in ast.walk(stmt) if isinstance(r, ast.Raise)}.values())

    return find


Guard = collections.namedtuple("Guard", "fact find owners former scope", defaults=("",))

# former copies that more than one row must see
CANDIDATES = "def _invariant_subspace_candidates(h, cert):\n    rng = np.random.default_rng(0)\n    if h.mode == 'exact':\n        pass\n"
BAREISS = "def bareiss(a, pivots, k, prev):\n    p = a[k][pivots[k]]\n    a[i][j] = (p * a[i][j] - a[i][k] * a[k][j]) // prev\n    return [x // p for x in a[k]]\n"
TYPE_CHECK = "def cmd_type_check(args):\n    gamma1_sum = sum(sigma.rank - m[0] for m in sigma.multiplicities)\n    feasible = 2 * sigma.rank <= gamma1_sum\n"
POISSON_CHECK = (
    "def cmd_poisson_check(args):\n    from .poisson import QuadraticObservable, check_commutativity, entry_bracket_residuals\n"
    "    lhs = a.bracket_with(b.bracket_with(c, jmat), jmat).value_at(v)\n    entry.append(entry_bracket_residuals(rep, points, z, w).max())\n"
    "    comm.append(check_commutativity(rep, points, t, t2, z, w))\n    count = independent_hamiltonian_count(rep, points, list(range(1, r + 3)), zs)\n"
)
OBSERVABLES = calls_of("trace_power_observable", "entry_observable", "bracket", "zero_gradient")
CHAR_POLY = (
    "def char_poly(h):\n    top = r * (n - 1) if any(sum(x) for row in entries for x in row) else max(0, r * (n - 2))\n"
    "    for t in range(top + 1):\n        values.append(ex.paddmul(entry, [x], weight))\n    for j, v in enumerate(zip(*values), start=1):\n"
    "        if p and len(p) - 1 > bound:\n            raise ExactnessRequired(f'level {j} coefficient has degree {len(p) - 1} > {bound}')\n"
)
VERIFY = "def verify(solution, instance, hitchin=False):\n    hp = char_poly(h)\n    orders = vanishing_orders(hp, sigma)\n    ok = is_integral(spectral_poly(hp))\n"
REFINE_AT = (
    "def _refine_at(solution, instance, nested, den):\n    if not c.rank_sequence:\n        frames.append(None)\n    if f is None:\n"
    "        conjugators.append(ex.meye(r))\n    adj = ex.back_substitute(red, piv, d, [[-v for v in row[r:]] for row in red])\n"
)
GRAD = "def grad(rep):\n    out = zero_gradient(quiver)\n    c = 1.0 / (zc - complex(points[m]))\n"  # the former entry gradient
IRREDUCIBLE = "def irreducible(mats, mode='float'):\n    witness = next(_proper_closures(elements, ([v] for v in _witness_candidates(mats, mode)), o), None)\n"

GUARDS = [
    # arith chooses between the entry formats; an exact-only or float-only
    # path elsewhere comes through a backend operation, not a mode test
    Guard("mode_forks_stay_in_arith", mode_comparisons, ["arith.ops"] * 2 + ["cli._spectral_appendix", "dsolve.exact_refine", "higgs._witness_candidates",
          "jsonio.matrix_from_json", "jsonio.matrix_to_json", "spectral.char_poly"], {CANDIDATES: 1}),
    # the verdict's search draws seeded random vectors only through
    # _witness_candidates, whose first proper closure leads its candidates
    Guard("stability_verdict_draws_no_random_vectors", calls_of("default_rng"), ["higgs._witness_candidates"], {CANDIDATES: 1}, "higgs"),
    # np.kron costs tens of microseconds a call on the solver's small
    # matrices; floatarith.kron is the one Kronecker product
    Guard("one_kronecker_product", definitions("kron"), ["floatarith.kron"], {"def _kron_blocks(a, b):\n    pass\n": 1}),
    Guard("no_numpy_kron", numpy_kron, [], {"def f(a, b):\n    from numpy import kron\n    return np.kron(a, b) + kron(a, b)\n": 2}),
    # linalg_exact.echelon is the one forward elimination and back_substitute
    # the one division by its pivots: solve, int_kernel, int_inverse (the
    # refinement's d Q^-1 and the Sylvester inverses of the Hensel lifts) and
    # the anchored zero-sum solve read their answers off it
    Guard("one_elimination_loop", fraction_free_steps, ["linalg_exact.echelon"], {BAREISS: 1}),
    Guard("one_back_substitution", pivot_divisions, ["linalg_exact.back_substitute"], {BAREISS: 1}),
    Guard("back_substitution_callers", calls_of("back_substitute"),
          ["dsolve._solve_anchored", "linalg_exact.int_inverse", "linalg_exact.int_kernel", "linalg_exact.solve"], {REFINE_AT: 1}),
    # linalg_exact.int_inverse is the one exact inverse
    Guard("one_integer_inverse", identity_solves, [], {"def s(g, h):\n    return ex.solve(_sylvester(g, h), ex.meye(len(g) + len(h) - 2))\n": 1}),
    # linalg_exact.clear writes rationals over one denominator;
    # spectral._integer_form scales level j by s^j, which no one denominator does
    Guard("one_clearing_rule", clearing_steps, ["linalg_exact.clear", "spectral._integer_form"],
          {"def g(row, den):\n    return [x.numerator * (den // x.denominator) for x in row]\n": 1}),
    # spectral._factor's walk over z0 = -1, -2, ... is the one evaluation of
    # the discriminant; the pool certificates of _certify read factor degrees
    Guard("one_squarefree_walk", calls_of("_discriminant_vanishes"), ["spectral._factor"],
          {"def c(f, vanishing):\n    if _discriminant_vanishes(f):\n        vanishing += 1\n": 1}),
    # combinat.ds_feasible owns 2r <= sum of gamma_1, which type-check only
    # reports; spectral._distinct_degree compares a doubled degree with len(f)
    Guard("one_residue_sum_inequality", doubled_comparisons, ["combinat.ds_feasible", "spectral._distinct_degree"], {TYPE_CHECK: 1}),
    Guard("cli_takes_no_first_flag_dimension", first_flag_dimensions, [], {TYPE_CHECK: 1}, "cli"),
    # poisson.check is the one Poisson check: its Jacobi brackets, its
    # commutativity grid and its Hamiltonian count have no other caller, its
    # entry sweeps share their kernel only with check_entry_bracket, and
    # poisson check imports nothing else of poisson
    Guard("jacobi_brackets_in_the_check", calls_of("bracket_with"), ["poisson.check"] * 6, {POISSON_CHECK: 2}),
    Guard("commutativity_grid_in_the_check", calls_of("check_commutativity"), ["poisson.check"], {POISSON_CHECK: 1}),
    Guard("hamiltonian_count_in_the_check", calls_of("independent_hamiltonian_count"), ["poisson.check"], {POISSON_CHECK: 1}),
    Guard("entry_sweeps_in_the_check", calls_of("entry_bracket_residuals"), ["poisson.check", "poisson.check_entry_bracket"], {POISSON_CHECK: 1}),
    Guard("poisson_check_imports_only_check", imports_of("poisson", "check"), [], {POISSON_CHECK: 3}),
    # the bracket kernels form their slots in one stacked pass, with no
    # observable, zero gradient or generic bracket per term; _entry_slots is
    # the one home of the entry closed form
    Guard("stacked_commutativity", OBSERVABLES, [], {
        "def check_commutativity(rep, points, t, t_prime, z, w):\n    it = trace_power_observable(rep.quiver, points, t, z, selfcheck=False)\n"
        "    it2 = trace_power_observable(rep.quiver, points, t_prime, w, selfcheck=False)\n    return abs(bracket(it, it2, rep))\n": 3,
    }, "poisson.check_commutativity"),
    Guard("stacked_entry_sweep", OBSERVABLES, [], {
        "def entry_bracket_residuals(rep, points, z, w):\n    def rows(x):\n"
        "        return [entry_observable(q, points, x, i, j, selfcheck=False).grad(rep) for i in range(r) for j in range(r)]\n": 1,
        GRAD: 1,
    }, "poisson.entry_bracket_residuals"),
    Guard("one_entry_closed_form", entry_coefficients, ["poisson._entry_slots"], {GRAD: 1}),
    Guard("entry_slot_readers", calls_of("_entry_slots"), ["poisson.entry_bracket_residuals.rows", "poisson.entry_observable.grad"],
          {"def grad(rep):\n    for m, fs, gs in _entry_slots(rep, points, z):\n        pass\n": 1}),
    # char_poly forms s M(t) as an integer matrix at each node: no matrix
    # over Z[z] and no kernel that evaluates one
    Guard("no_polynomial_matrix_kernel", definitions("_zx_charpoly"), [], {"def _zx_charpoly(a):\n    pass\n": 1}),
    Guard("char_poly_forms_integer_matrices", calls_of("paddmul", "peval"), [], {CHAR_POLY: 1}, "spectral.char_poly"),
    # cli._spectral_appendix runs the exact spectral cross-check for both
    # bridge --hitchin and ds verify --hitchin
    *(Guard(f"one_spectral_chain_{name}", calls_of(name), ["cli._spectral_appendix"], {VERIFY: 1})
      for name in ("char_poly", "vanishing_orders", "spectral_poly", "is_integral")),
    # HiggsTuple.validate is the one test of strong preservation:
    # higgs_to_quiver reads the corestrictions with no try, no BridgeError
    # and no tolerance
    Guard("one_preservation_rule", second_preservation_checks, [], {
        "def higgs_to_quiver(h):\n    try:\n        gj.append(o.solve(prev, cur, h.tol))\n    except ValueError as e:\n"
        "        raise BridgeError(f'point {i}: flag step {j} is not preserved strongly ({e})') from None\n": 3,
    }, "higgs.higgs_to_quiver"),
    # each fact of the exact chain is decided once: char_poly refuses a
    # nonzero residue sum before any node and counts its nodes one way;
    # _refine_at takes every class through its one general path; the
    # tuple's validation refuses a wrong point count for
    # flags_from_solution; parabolic_slope ranks only w and [F w]
    Guard("char_poly_decides_its_node_count_once", late_checks, [], {CHAR_POLY: 2}, "spectral.char_poly"),
    Guard("refine_at_keeps_no_zero_class_frames", none_frames, [], {REFINE_AT: 1}, "dsolve._refine_at"),
    Guard("refine_at_builds_no_identity", calls_of("meye"), [], {REFINE_AT: 1}, "dsolve._refine_at"),
    Guard("flags_trust_the_tuple_point_count", calls_of("BridgeError"), [], {
        "def flags_from_solution(solution, sigma):\n    if len(solution.matrices) != sigma.n_points:\n        raise BridgeError(_COUNT_MESSAGE)\n": 1,
    }, "dsolve.flags_from_solution"),
    Guard("slope_ranks_only_w_and_its_span", calls_of("rank"), ["higgs.parabolic_slope"] * 2, {
        "def parabolic_slope(h, w=None):\n    if o.rank(w) != k:\n        raise BridgeError('subobject basis is rank deficient')\n"
        "    inter = [k] + [o.rank(step) + k - o.rank(o.from_columns(o.columns(step) + o.columns(w))) for step in h.flags[i]]\n": 3,
    }, "higgs.parabolic_slope"),
    # irreducible certifies from its word closure and stability_verdict
    # alone searches an invariant subspace; dsolve owns the rank profile, so
    # only cli's spectral appendix imports spectral; a nilpotent class checks
    # its power ranks by the one chain rule
    Guard("one_witness_search", calls_of("_witness_candidates"), ["higgs._invariant_subspace_candidates"], {IRREDUCIBLE: 1}),
    Guard("one_closure_search", calls_of("_proper_closures"), ["higgs._invariant_subspace_candidates"] * 2, {IRREDUCIBLE: 1}),
    Guard("only_the_appendix_imports_spectral", imports_of("spectral"), ["cli._spectral_appendix"] * 4,
          {"from .spectral import rank_profile\nfrom . import spectral\nimport starquiver.spectral\nfrom starquiver.spectral import char_poly\n": 4}),
    Guard("one_chain_check_per_nilpotent_class", raises_under("seq"), ["combinat.NilpotentClass.__post_init__"], {
        "def __post_init__(self):\n    if seq:\n        if seq[0] >= self.rank:\n            raise ValueError('first power rank not below the rank')\n"
        "        if any(a <= b for a, b in zip(seq, seq[1:])) or seq[-1] <= 0:\n            raise ValueError('power ranks must be strictly decreasing')\n"
        "        if not chain_simple(self.rank, seq):\n            raise ValueError('rank differences must be nonincreasing')\n": 3,
    }, "combinat.NilpotentClass.__post_init__"),
]


@pytest.mark.parametrize("guard", GUARDS, ids=lambda g: g.fact)
def test_one_home(guard):
    assert owners(guard.find, guard.scope) == sorted(guard.owners)


@pytest.mark.parametrize("guard", GUARDS, ids=lambda g: g.fact)
def test_guard_sees_its_former_copy(guard):
    # the former copy of a scoped row is the former code of its scope
    assert guard.former
    for snippet, hits in guard.former.items():
        tree = ast.parse(snippet)
        assert hits and len(guard.find(tree.body[0] if "." in guard.scope else tree)) == hits, snippet


def test_every_guard_names_live_code():
    # a renamed function would leave its row passing on nothing
    live = set().union(*(package_outline(path)[1] for path in PACKAGE))
    assert sorted({name for g in GUARDS for name in [*g.owners, g.scope] if name} - live) == []
    assert len({g.fact for g in GUARDS}) == len(GUARDS)
