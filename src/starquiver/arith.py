"""The one place where the two entry formats meet.

Every matrix-valued object in the package (representations, residue
tuples, solutions) names its entry format with a mode string: ``"exact"``
for lists of row lists of ``Fraction`` entries, ``"float"`` for complex128
ndarrays.  ``ops(mode)`` validates that string and returns the backend,
``EXACT`` or ``FLOAT``; callers resolve it once per object or function and
then use the same operations for either format.

The exact backend delegates to ``linalg_exact`` and ignores every
tolerance argument, because its answers are exact.  The float backend
uses numpy; its thresholds are documented per operation.  Vectors are
lists of rational entries, ``Fraction`` or ``int`` (exact), or 1-d ndarrays
(float).

Three operations return different values in the two formats.  The exact
``powers`` of A are the integer matrices (D A)^j, D the lcm of the entry
denominators of A: rank and column space do not see the scale D^j, and
integer products cost far less than Fraction ones.  The exact
``nullspace`` vectors are primitive integer vectors, the float ones unit
vectors; the spans are what count.  The exact
``conjugation_gap`` is ``a p - p n``, which needs no inverse; the float one
is ``a - p n p^-1``.
"""

from fractions import Fraction
from itertools import accumulate, repeat

import numpy as np

from . import linalg_exact as ex


def _real_array(a):
    return np.array([[float(x) for x in row] for row in a])


def kron(a, b):
    """``np.kron`` of the last two axes (the same products), broadcast over the leading ones."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3], out.shape[-2] * out.shape[-1]))


class _FloatSpan:
    """Incremental linear independence of float vectors: an orthonormal
    basis built by twice-repeated Gram-Schmidt.  A vector counts as new when
    its norm exceeds ``tol`` times the largest norm seen so far and its
    residual exceeds ``tol`` times its own norm."""

    def __init__(self, tol):
        self.tol = tol
        self.rows = []
        self.scale0 = 0.0

    def add(self, vec):
        v = np.asarray(vec, dtype=complex)
        scale = np.linalg.norm(v)
        self.scale0 = max(self.scale0, scale)
        # vectors at roundoff scale relative to the data are numerically
        # zero, not new directions
        if scale <= self.tol * self.scale0:
            return False
        for _ in range(2):  # reorthogonalize once for numerical safety
            for row in self.rows:
                v = v - row * np.vdot(row, v)
        resid = np.linalg.norm(v)
        if resid <= self.tol * scale:
            return False
        self.rows.append(v / resid)
        return True

    def __len__(self):
        return len(self.rows)


class _Exact:
    name = "exact"

    def coerce(self, a):
        return a

    def from_exact(self, a):
        return a

    def to_float(self, a):
        return np.array([[float(x) for x in row] for row in a], dtype=complex)

    zeros = staticmethod(ex.mzeros)
    eye = staticmethod(ex.meye)
    shape = staticmethod(ex.shape)
    copy = staticmethod(ex.mcopy)
    add = staticmethod(ex.madd)
    sub = staticmethod(ex.msub)
    mul = staticmethod(ex.mmul)
    trace = staticmethod(ex.mtrace)
    inv = staticmethod(ex.inv)

    def nullspace(self, a):
        """Right kernel basis: one primitive integer vector per non-pivot
        column (``int_kernel`` of the cleared matrix)."""
        return ex.int_kernel(ex.clear(a)[0])

    def powers(self, a, count):
        """(D a)^1 .. (D a)^count as integer matrices, D the lcm of the
        entry denominators of a."""
        return accumulate(repeat(ex.clear(a)[0], count), ex.imul)

    def norm(self, a):
        return float(np.linalg.norm(_real_array(a)))

    def is_zero(self, a, *_):
        return ex.is_zero(a)

    def rank(self, a, *_):
        return ex.rank(a)

    def unit(self, a):
        return a  # exact ranks and spans do not see the scale

    def singular_scale(self, a):
        return 0.0  # exact ranks need no anchor

    def basis(self, a, *_):
        """Column space basis: the columns of a at the pivots of one forward
        elimination (``echelon``) of the cleared matrix; the exact rank sets
        the width, whatever width is asked for."""
        piv = ex.echelon(ex.clear(a)[0])[1]
        return [[row[p] for p in piv] for row in a]

    def conjugation_gap(self, a, p, n):
        """a p - p n, which vanishes exactly when p n p^-1 = a for an
        invertible p; it needs no inverse."""
        return ex.msub(ex.mmul(a, p), ex.mmul(p, n))

    def columns(self, a):
        return [list(col) for col in zip(*a)]

    def from_columns(self, cols):
        return [[Fraction(x) for x in row] for row in zip(*cols)]

    def apply(self, m, v):
        """m v, one entry per row of m; a row whose length is not len(v)
        raises ValueError, as a float shape mismatch does."""
        return [sum((x * y for x, y in zip(row, v, strict=True)), Fraction(0)) for row in m]

    def flatten(self, a):
        return [x for row in a for x in row]

    def solve(self, a, b, *_):
        return ex.solve(a, b)

    def contains(self, span, vecs, *_):
        """Column space of vecs contained in column space of span?"""
        return ex.rank(ex.hstack([span, vecs])) == ex.rank(span)

    def intersection_dim(self, a, b):
        """dim(col a  meet  col b) = rk a + rk b - rk [a b]."""
        return ex.rank(a) + ex.rank(b) - ex.rank(ex.hstack([a, b]))

    def span_tracker(self, *_):
        return ex.Span()


class _Float:
    name = "float"

    def coerce(self, a):
        return np.asarray(a, dtype=complex)

    to_float = coerce

    def from_exact(self, a):
        return _real_array(a)

    def zeros(self, m, n):
        return np.zeros((m, n), dtype=complex)

    def eye(self, n):
        return np.eye(n, dtype=complex)

    def shape(self, a):
        return a.shape

    def copy(self, a):
        return a.copy()

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    mul = staticmethod(np.matmul)  # a @ b, without a Python frame per product

    def powers(self, a, count):
        """a^1 .. a^count."""
        return accumulate(repeat(a, count), np.matmul)

    trace = staticmethod(np.trace)

    def inv(self, a):
        return np.linalg.inv(a)

    def norm(self, a):
        return float(np.linalg.norm(a))

    def is_zero(self, a, tol=0.0):
        """Frobenius norm at most ``tol``."""
        return bool(np.linalg.norm(a) <= tol)

    def rank(self, a, rtol=None, floor=0.0):
        """Singular values above ``rtol * max(largest singular value, floor)``,
        ``rtol`` by default max-dim * eps; 0 for an empty or zero matrix.  A
        ``floor`` anchors the cut of a near-zero power of a matrix at the
        scale of the matrix itself."""
        a = np.asarray(a, dtype=complex)
        if a.size == 0:
            return 0
        s = np.linalg.svd(a, compute_uv=False)
        if rtol is None:
            rtol = max(a.shape) * np.finfo(float).eps
        return int(np.sum(s > rtol * max(float(s[0]), floor)))

    def singular_scale(self, a):
        s = np.linalg.svd(a, compute_uv=False)
        return float(s[0]) if s.size else 0.0

    def unit(self, a):
        """``a`` (or a stack of arrays) over its Frobenius norm, if nonzero."""
        a = np.asarray(a)
        n = np.linalg.norm(a)
        return a / n if n else a

    def basis(self, a, rank):
        """The first ``rank`` left singular vectors (reduced SVD)."""
        u, _, _ = np.linalg.svd(a, full_matrices=False)
        return u[:, :rank]

    def nullspace(self, a):
        """Right singular vectors beyond the default ``rank``."""
        _, _, vh = np.linalg.svd(a)
        return [vh[k].conj() for k in range(self.rank(a), vh.shape[0])]

    def conjugation_gap(self, a, p, n):
        """a - p n p^-1, whose size does not grow with the scale of p."""
        return a - p @ n @ np.linalg.inv(p)

    def columns(self, a):
        return [a[:, k] for k in range(a.shape[1])]

    def from_columns(self, cols):
        return np.stack(cols, axis=1)

    def apply(self, m, v):
        return m @ v

    def flatten(self, a):
        return np.asarray(a, dtype=complex).reshape(-1)

    def solve(self, a, b, tol):
        """Least-squares solution; raises ValueError when the residual
        exceeds ``tol * max(1, |b|)``."""
        x, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
        resid = np.linalg.norm(a @ x - b)
        if resid > tol * max(1.0, np.linalg.norm(b)):
            raise ValueError(f"residual {resid:.2e}")
        return x

    def contains(self, span, vecs, tol):
        """Column space of vecs inside that of span: the residual of the
        projection onto span is at most ``tol`` times max(1, |vecs|)."""
        if span.shape[1] == 0:
            return bool(np.linalg.norm(vecs) <= tol)
        q, _ = np.linalg.qr(span)
        resid = vecs - q @ (q.conj().T @ vecs)
        scale = max(1.0, float(np.linalg.norm(vecs)))
        return bool(np.linalg.norm(resid) <= tol * scale)

    def intersection_dim(self, a, b):
        """dim(col a  meet  col b) = rk a + rk b - rk [a b], at the default
        ``rank`` cut."""
        return self.rank(a) + self.rank(b) - self.rank(np.hstack([a, b]))

    def span_tracker(self, tol):
        return _FloatSpan(tol)


EXACT = _Exact()
FLOAT = _Float()


def ops(mode):
    """The backend for a mode string; raises ValueError for any other."""
    for backend in (EXACT, FLOAT):
        if mode == backend.name:
            return backend
    raise ValueError("mode must be 'float' or 'exact'")
