"""Fuzz of the CLI failure contract: every subcommand that reads a file,
run in-process on single mutations of the shipped fixtures, ends in an
exit code 0-3 with no exception escaping ``main``, and exit 1 comes with
exactly one ``error:`` line on stderr, in the package's words rather than
Python's (``'int' object is not iterable`` names no field).

Mutations drop a key, swap a value's JSON type, wrap the document in a
list, put "1/0" or "x" where a rational string stands, or make a matrix
ragged.  Budgets stay small (one restart, one grid point) and the search
is derandomized, so the suite stays fast and reproducible.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from common import FIXTURES, GOLDEN
from starquiver.cli import main


# Python's words for a value of the wrong type, which no error line may use
PYTHON_WORDS = ("object is not iterable", "object is not subscriptable", "indices must be integers", "has no attribute")

# replacements for a value of another JSON type: small integers only
OTHER_VALUES = (0, 1, -1, 2, 5, 1.5, "x", "1", [], [1], {}, {"x": 1}, None, True)


def _nodes(doc, path=()):
    """Every (path, value) in the document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _is_matrix(node):
    return isinstance(node, list) and node and all(isinstance(row, list) and row for row in node)


def mutations(doc):
    """Every single mutation of ``doc``: the paths each kind applies to."""
    out = {"wrap": [()], "swap": [], "drop": [], "rational": [], "ragged": []}
    for path, node in _nodes(doc):
        out["swap"].append(path)
        if isinstance(node, dict):
            out["drop"] += [path + (key,) for key in node]
        if isinstance(node, str):
            out["rational"].append(path)
        if _is_matrix(node):
            out["ragged"].append(path)
    return {kind: paths for kind, paths in out.items() if paths}


def mutate(data, doc):
    """One mutation of a copy of ``doc``, drawn with hypothesis' ``data``:
    first its kind, then where it applies."""
    doc = copy.deepcopy(doc)
    paths = mutations(doc)
    kind = data.draw(st.sampled_from(sorted(paths)), label="kind")
    path = data.draw(st.sampled_from(paths[kind]), label="path")
    if kind == "wrap":
        return [doc]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else doc
    if kind == "drop":
        del parent[path[-1]]
        return doc
    if kind == "swap":
        new = data.draw(st.sampled_from([v for v in OTHER_VALUES if type(v) is not type(node)]), label="value")
    elif kind == "rational":
        new = data.draw(st.sampled_from(["1/0", "x"]), label="value")
    else:  # ragged: one row loses its last entry or gains a copy of its first
        new = copy.deepcopy(node)
        row = new[data.draw(st.integers(0, len(new) - 1), label="row")]
        if data.draw(st.booleans(), label="shorten"):
            row.pop()
        else:
            row.append(row[0])
    if not path:
        return new
    parent[path[-1]] = new
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A scratch directory holding a solution of the rank-2 fixture."""
    work = tmp_path_factory.mktemp("fuzz")
    instance = str(FIXTURES / "ds_rank2_four_rank1.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ds", "solve", "--instance", instance, "--seed", "7", "--out", str(work / "sol.json")]) == 0
    return work


# (document to mutate, arguments with BAD standing for the mutated file)
CASES = {
    "type-check": (FIXTURES / "type_rank2_full_flags.json", ["type-check", "--type", "BAD"]),
    "ds-solve": (
        FIXTURES / "ds_rank2_four_rank1.json",
        ["ds", "solve", "--instance", "BAD", "--restarts", "1", "--max-iters", "50"],
    ),
    "ds-verify-solution": (
        "sol.json",
        ["ds", "verify", "--solution", "BAD", "--instance", str(FIXTURES / "ds_rank2_four_rank1.json"), "--hitchin"],
    ),
    "ds-verify-instance": (
        FIXTURES / "ds_rank2_four_rank1.json",
        ["ds", "verify", "--solution", "SOL", "--instance", "BAD", "--hitchin"],
    ),
    "bridge-to-quiver": (FIXTURES / "higgs_rank2_heavy_top.json", ["bridge", "to-quiver", "--higgs", "BAD", "--hitchin"]),
    "bridge-to-quiver-split": (FIXTURES / "higgs_rank2_split_bundle.json", ["bridge", "to-quiver", "--higgs", "BAD"]),
    "bridge-to-higgs-rep": (
        GOLDEN / "closed_form_rep.json",
        ["bridge", "to-higgs", "--rep", "BAD", "--type", str(FIXTURES / "type_rank2_full_flags.json"), "--hitchin"],
    ),
    "bridge-to-higgs-type": (
        FIXTURES / "type_rank2_full_flags.json",
        ["bridge", "to-higgs", "--rep", str(GOLDEN / "heavy_top_rep.json"), "--type", "BAD", "--hitchin"],
    ),
    "poisson-check": (GOLDEN / "closed_form_rep.json", ["poisson", "check", "--rep", "BAD", "--grid", "1"]),
}


@pytest.mark.parametrize("case", sorted(CASES))
@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_fixture_ends_in_an_exit_code(workdir, case, data):
    source, argv = CASES[case]
    source = workdir / source if isinstance(source, str) else source
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(mutate(data, json.loads(source.read_text(encoding="utf-8")))), encoding="utf-8")
    argv = [str(bad) if a == "BAD" else str(workdir / "sol.json") if a == "SOL" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        lines = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
        assert len(lines) == 1
        assert not any(words in lines[0] for words in PYTHON_WORDS), lines[0]
