"""Source hygiene: no unused imports in the package or the tests (a
function-local one is read in its own function), no unread private
module-level names or function parameters in the package, no public
function, class or method that only tests read unless README.md names it,
no `arith` backend op that only tests call, no option that every caller
leaves at its default, no new mode comparison outside `arith`, no seeded
random vectors in the stability verdict, one Kronecker product and no
`np.kron`, one fraction-free elimination loop, and subcommands that load
only the layers they run: a CLI import, `type-check`, the exact layers
and the exact `bridge --hitchin` conversions without numpy, and an exact
`ds verify --hitchin` and the `bridge --hitchin` conversions without
sympy."""

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
    # plain integers; ds loads no poisson
    instance, sol = str(FIXTURES / "ds_rank2_four_rank1.json"), str(tmp_path / "sol.json")
    code = (
        "import sys; from starquiver.cli import main; "
        f"assert main(['ds', 'solve', '--instance', {instance!r}, '--seed', '7', '--out', {sol!r}]) == 0; "
        f"assert main(['ds', 'verify', '--solution', {sol!r}, '--instance', {instance!r}, '--hitchin']) == 0; "
        f"{LOADED}"
    )
    loaded = run_fresh(code)[-1].split()
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


@pytest.mark.parametrize("factorable,integral", [(True, "integral"), (False, "undetermined")])
def test_bridge_hitchin_fallback_loads_sympy(tmp_path, factorable, integral):
    # with a _certify that decides nothing, the closed form's integrality
    # falls to sympy's factorization, the one path that loads sympy; when
    # the factorization fails too, the verdict is undetermined and the
    # conversion still exits 0
    higgs, report = str(GOLDEN / "closed_form_higgs.json"), tmp_path / "report.json"
    unfactorable = [
        "class Unfactorable:",
        "    def factor_list(self):",
        "        raise NotImplementedError('no bivariate factorization here')",
        "spectral.SpectralPolynomial._poly = lambda self: Unfactorable()",
    ]
    code = "\n".join(
        [
            "import sys",
            "from starquiver import cli, spectral",
            "spectral._certify = lambda c: None",
            *([] if factorable else unfactorable),
            f"print(cli.main(['bridge', 'to-quiver', '--higgs', {higgs!r}, '--hitchin', '--report', {str(report)!r}]))",
            LOADED,
        ]
    )
    lines = run_fresh(code)
    assert lines[-2] == "0"
    assert "sympy" in lines[-1].split()
    assert json.loads(report.read_text(encoding="utf-8"))["spectral"]["integral"] == integral


def names_read(node):
    """Names loaded and attributes read anywhere under an AST node."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_every_linalg_exact_function_has_a_package_caller():
    # test-only kernels, such as the reference oracles, belong under tests/;
    # classes count as functions
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted((SRC / "starquiver").glob("*.py"))}
    functions = [node for node in trees.pop("linalg_exact.py").body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    called = set().union(*(names_read(tree) for tree in trees.values()))
    # callers inside linalg_exact count, a function's own body does not
    hits = [
        f"linalg_exact.py:{f.lineno}: {f.name}"
        for f in functions
        if not f.name.startswith("_")
        and f.name not in called
        and not any(f.name in names_read(g) for g in functions if g is not f)
    ]
    assert hits == []


def test_every_arith_op_has_a_package_caller():
    # each public op of the two backends, arith's exact one and floatarith's
    # float one, is read by another package module; an op that only a test
    # oracle calls belongs in the oracle
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted((SRC / "starquiver").glob("*.py"))}
    body = trees.pop("arith.py").body + trees.pop("floatarith.py").body
    backends = [c for c in body if isinstance(c, ast.ClassDef) and c.name in ("_Exact", "_Float")]
    assert [c.name for c in backends] == ["_Exact", "_Float"]
    # methods and aliases of methods; the constant ``name`` is the mode string
    ops = {
        f"{cls.name}.{name}"
        for cls in backends
        for node in cls.body
        if not isinstance(getattr(node, "value", None), ast.Constant)
        for name in ([node.name] if isinstance(node, ast.FunctionDef) else [t.id for t in getattr(node, "targets", [])])
        if not name.startswith("_")
    }
    # ops are reached as attributes of a backend, so only attribute reads count
    read = {n.attr for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert sorted(op for op in ops if op.split(".")[1] not in read) == []


def readme_names():
    """Identifiers inside README.md's backticked spans."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    return {name for span in re.findall(r"`([^`]+)`", text) for name in re.findall(r"[A-Za-z_]\w*", span)}


def definition_units(tree):
    """(key, class, line, names read) for each piece of a module: a
    module-level function, a class apart from its methods, a method (key
    ``Class.name``), and the remaining module-level statements (key None)."""
    units, rest = [], []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            units.append((node.name, None, node.lineno, names_read(node)))
        elif isinstance(node, ast.ClassDef):
            methods = [f for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
            head = node.decorator_list + node.bases + node.keywords + [n for n in node.body if n not in methods]
            units.append((node.name, None, node.lineno, set().union(*map(names_read, head))))
            units += [(f"{node.name}.{f.name}", node.name, f.lineno, names_read(f)) for f in methods]
        else:
            rest.append(node)
    return units + [(None, None, None, set().union(*map(names_read, rest)))]


@functools.cache
def unread_public_definitions():
    """Public module-level functions and classes and public methods of the
    package that no module of the package or of ``perfbench`` reads outside
    their own body, tests left out, and that README.md does not name in
    backticks.  What only unread definitions read is unread too, so the
    scan repeats until nothing more falls; a method of an unread class
    falls with it."""
    package = sorted((SRC / "starquiver").glob("*.py"))
    bench = [p for p in sorted((SRC.parent / "perfbench").glob("*.py")) if not p.name.startswith("test_") and p.name != "conftest.py"]
    units, candidates = [], []
    for path in package + bench:
        for key, cls, line, names in definition_units(ast.parse(path.read_text(encoding="utf-8"))):
            units.append(((path, key), cls and (path, cls), names))
            name = key and key.split(".")[-1]
            if path in package and name and not name.startswith("_"):
                candidates.append(((path, key), name, line))
    mentioned = readme_names()
    dead = set()
    while True:
        live = [(key, owner, names) for key, owner, names in units if key not in dead and owner not in dead]
        fallen = {
            key
            for key, name, _ in candidates
            if key not in dead
            and name not in mentioned
            and not any(name in names for reader, owner, names in live if key not in (reader, owner))
        }
        if not fallen:
            return [f"{path.name}:{line}: {key}" for (path, key), _, line in candidates if (path, key) in dead]
        dead |= fallen


def test_every_public_function_and_class_is_read():
    # a public function or class that only tests read is test scaffolding
    # and lives under tests/; library API that the pipeline does not run is
    # named in README.md
    assert [hit for hit in unread_public_definitions() if "." not in hit.split(": ")[1]] == []


def test_every_public_method_is_read():
    # the same rule for methods: a method that no module of the package or
    # its benchmark reads by name is dead code or test scaffolding
    assert [hit for hit in unread_public_definitions() if "." in hit.split(": ")[1]] == []


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


def test_every_option_is_set():
    # an option that every caller leaves at its default is a constant: each
    # one doubles the configurations the tests must cover
    root = SRC.parent
    paths = [path for d in ("src", "tests", "perfbench") for path in sorted((root / d).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    assert unset_options(trees, SRC) == []


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
    # the verdict tests the algebra closures of the flags; seeded random
    # vectors stay in the irreducibility witness search
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
    # linalg_exact.echelon is the package's one forward elimination; bareiss,
    # rank and the anchored zero-sum solve all run it, and none keeps a
    # second copy of the loop beside it
    owners = []
    for path in sorted((SRC / "starquiver").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                owners += [f"{path.stem}.{node.name}"] * len(fraction_free_steps(node))
    assert owners == ["linalg_exact.echelon"]
