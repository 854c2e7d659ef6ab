"""JSON encodings for every value type crossing the CLI boundary.

Numbers never pass through locale formatting: exact scalars are rational
strings ("3/2"), floating complex entries are [re, im] pairs serialized
by repr, and every report is dumped with sorted keys so identical inputs
produce byte-identical files.

Only ``combinat`` loads with this module: every other value type's module
is imported by the decoder that builds the value, once its fields have
decoded, ``arith`` by a matrix and numpy by a float one.  So reading a
parabolic type loads no array code, and a rejected file loads no more
than its decoding reached.
"""

import functools
import json
import math
from fractions import Fraction

from .combinat import MarkedLine, NilpotentClass, ParabolicType


class InputFormatError(ValueError):
    pass


def parse_frac(s) -> Fraction:
    """An exact rational field: a string or a JSON integer; a bool or a JSON
    float raises ``InputFormatError``."""
    try:
        if isinstance(s, bool) or not isinstance(s, (str, int)):
            raise TypeError
        return Fraction(s)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise InputFormatError(f"not an exact rational: {s!r}") from e


def int_from_json(v):
    """An integer field: a JSON integer or a string of integral value; a
    bool, a JSON float or a non-integral string raises ``InputFormatError``."""
    x = parse_frac(v) if isinstance(v, str) else v
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)) or x.denominator != 1:
        raise InputFormatError(f"not an integer: {v!r}")
    return int(x)


# the JSON names of the values json.load returns, which a decoder's message
# gives when a value has the wrong JSON type
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean", int: "a number", float: "a number", type(None): "null"}


def _json_type(value):
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _expect(value, kind, field):
    """``value`` when it is a JSON array (``kind`` list) or object (dict);
    otherwise an ``InputFormatError`` naming ``field`` and the type it got."""
    if not isinstance(value, kind):
        raise InputFormatError(f"{field}: expected {_JSON_TYPES[kind]}, got {_json_type(value)}")
    return value


def _array(data, field):
    """The array ``data[field]``, checked by ``_expect``."""
    return _expect(data[field], list, field)


def _decoder(what):
    """Decorate the decoder of the value ``what`` so that malformed data ends
    in one ``InputFormatError``: a value that is not a JSON object, a missing
    field, or an invalid value with the message of the error that decoding
    it raised (a zero denominator, or a number too large for a float, among
    them)."""

    def wrap(decode):
        @functools.wraps(decode)
        def run(data, *args, **kwargs):
            if not isinstance(data, dict):
                raise InputFormatError(f"invalid {what}: expected a JSON object, got {_json_type(data)}")
            try:
                return decode(data, *args, **kwargs)
            except KeyError as e:
                raise InputFormatError(f"{what} is missing the field {e}") from e
            except (AttributeError, TypeError, ValueError, ArithmeticError) as e:
                raise InputFormatError(f"invalid {what}: {e}") from e

        return run

    return wrap


def scalar_from_json(v):
    """A float entry: a finite JSON number or an [re, im] pair of them; a
    bool is not a number here, as in ``int_from_json``, and neither are the
    NaN and Infinity tokens that Python's json reads."""
    parts = v if isinstance(v, list) and len(v) == 2 else [v]
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x) for x in parts):
        return complex(*parts)
    raise InputFormatError(f"not a floating scalar: {v!r}")


def matrix_to_json(m, mode):
    if mode == "exact":
        return [[str(x) for x in row] for row in m]
    import numpy as np

    arr = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in arr]


def matrix_from_json(rows, mode):
    from .arith import ops

    ops(mode)  # the branch below reads every mode but exact as float: refuse an unknown one first
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputFormatError("matrix must be a list of rows")
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise InputFormatError("matrix rows have different lengths")
    if mode == "exact":
        return [[parse_frac(x) for x in row] for row in rows]
    import numpy as np

    return np.array([[scalar_from_json(x) for x in row] for row in rows], dtype=complex)


# ---------------------------------------------------------------------------
# parabolic types and classes


def type_to_json(sigma: ParabolicType) -> dict:
    return {
        "points": [str(p) for p in sigma.line.points],
        "rank": sigma.rank,
        "K": sigma.K,
        "flags": [
            {"multiplicities": list(m), "weights": list(w)}
            for m, w in zip(sigma.multiplicities, sigma.weights)
        ],
    }


@_decoder("parabolic type")
def type_from_json(data) -> ParabolicType:
    points = tuple(parse_frac(p) for p in _array(data, "points"))
    flags = [_expect(f, dict, f"flags[{i}]") for i, f in enumerate(_array(data, "flags"))]
    mults = tuple(tuple(int_from_json(x) for x in _array(f, "multiplicities")) for f in flags)
    weights = tuple(tuple(int_from_json(x) for x in _array(f, "weights")) for f in flags)
    return ParabolicType(
        line=MarkedLine(points),
        rank=int_from_json(data["rank"]),
        K=int_from_json(data["K"]),
        multiplicities=mults,
        weights=weights,
    )


@_decoder("nilpotent class")
def class_from_json(data) -> NilpotentClass:
    if "rank_sequence" in data:
        return NilpotentClass(
            rank=int_from_json(data["rank"]),
            rank_sequence=tuple(int_from_json(x) for x in _array(data, "rank_sequence")),
        )
    partition = [int_from_json(x) for x in _array(data, "partition")]
    return NilpotentClass.from_partition(partition, rank=int_from_json(data["rank"]))


@_decoder("instance")
def instance_from_json(data):
    classes = tuple(class_from_json(c) for c in _array(data, "classes"))
    points = None
    if "points" in data and data["points"] is not None:
        points = tuple(parse_frac(p) for p in _array(data, "points"))
    from .dsolve import DSInstance

    return DSInstance(rank=int_from_json(data["rank"]), classes=classes, points=points)


# ---------------------------------------------------------------------------
# representations


def rep_to_json(rep) -> dict:
    mats = {}
    for j in range(rep.quiver.n_arms):
        for i in range(len(rep.f[j])):
            mats[f"f/{j + 1}/{i + 1}"] = matrix_to_json(rep.f[j][i], rep.mode)
            mats[f"g/{j + 1}/{i + 1}"] = matrix_to_json(rep.g[j][i], rep.mode)
    return {
        "rank": rep.quiver.rank,
        "arms": [list(a) for a in rep.quiver.arms],
        "mode": rep.mode,
        "matrices": mats,
    }


@_decoder("representation")
def rep_from_json(data):
    from .starrep import StarQuiver, StarRep

    arms = tuple(tuple(int_from_json(d) for d in _expect(a, list, f"arms[{j}]")) for j, a in enumerate(_array(data, "arms")))
    quiver = StarQuiver(rank=int_from_json(data["rank"]), arms=arms)
    mode = data.get("mode", "float")
    mats = _expect(data["matrices"], dict, "matrices")
    f, g = [], []
    for j in range(quiver.n_arms):
        f.append([])
        g.append([])
        for i in range(1, len(quiver.dims(j))):
            f[j].append(matrix_from_json(mats[f"f/{j + 1}/{i}"], mode))
            g[j].append(matrix_from_json(mats[f"g/{j + 1}/{i}"], mode))
    return StarRep(quiver, f, g, mode)


# ---------------------------------------------------------------------------
# residue tuples with flags


def higgs_to_json(h) -> dict:
    return {
        "type": type_to_json(h.sigma),
        "mode": h.mode,
        "matrices": [matrix_to_json(m, h.mode) for m in h.matrices],
        "flags": [
            [matrix_to_json(b, h.mode) for b in fl] for fl in h.flags
        ],
    }


@_decoder("residue tuple")
def higgs_from_json(data, check=True):
    if "splitting_type" in data and any(int_from_json(d) != 0 for d in _array(data, "splitting_type")):
        raise InputFormatError(
            "the underlying bundle is not a sum of trivial line bundles "
            f"(splitting type {data['splitting_type']}); residue-matrix form "
            "requires a homologically trivial bundle with its global "
            "trivialization"
        )
    sigma = type_from_json(data["type"])
    mode = data.get("mode", "float")
    mats = [matrix_from_json(m, mode) for m in _array(data, "matrices")]
    flags = [[matrix_from_json(b, mode) for b in _expect(fl, list, f"flags[{i}]")] for i, fl in enumerate(_array(data, "flags"))]
    from .higgs import HiggsTuple

    return HiggsTuple(sigma=sigma, matrices=mats, flags=flags, mode=mode, check=check)


def hitchin_to_json(hp) -> dict:
    return {
        "rank": hp.rank,
        "points": [str(p) for p in hp.points],
        "coefficients": [[str(c) for c in p] for p in hp.coeffs],
    }


# ---------------------------------------------------------------------------
# solutions


def solution_to_json(sol, report=None) -> dict:
    out = {
        "mode": sol.mode,
        "matrices": [matrix_to_json(m, sol.mode) for m in sol.matrices],
        "conjugators": [matrix_to_json(p, sol.mode) for p in sol.conjugators],
        "residual": sol.residual,
        "restart_index": sol.restart_index,
        "iterations": sol.iterations,
    }
    if report is not None:
        out["report"] = report
    return out


@_decoder("solution")
def solution_from_json(data):
    from .dsolve import DSSolution

    mode = data.get("mode", "float")
    residual = data.get("residual", 0.0)  # reported, and recomputed by verify; read JSON numbers only
    if isinstance(residual, bool) or not isinstance(residual, (int, float)):
        raise InputFormatError(f"not a number: {residual!r}")
    if not math.isfinite(residual):
        raise InputFormatError(f"not a finite number: {residual!r}")
    return DSSolution(
        matrices=[matrix_from_json(m, mode) for m in _array(data, "matrices")],
        conjugators=[matrix_from_json(p, mode) for p in _array(data, "conjugators")],
        residual=float(residual),
        mode=mode,
        restart_index=int_from_json(data.get("restart_index", -1)),
        iterations=int_from_json(data.get("iterations", 0)),
    )


# ---------------------------------------------------------------------------
# files


def dump(path, payload):
    """Write ``payload`` as JSON; a path that cannot be written raises
    InputFormatError, as one that cannot be read does in ``load``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(payload))
    except OSError as e:
        raise InputFormatError(f"{path}: {e.strerror}") from e


def dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise InputFormatError(
            f"{path}: malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except OSError as e:
        raise InputFormatError(f"{path}: {e.strerror}") from e
