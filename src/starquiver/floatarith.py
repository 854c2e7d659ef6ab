"""The float entry format: complex128 ndarrays, and numpy with them.

``arith.ops("float")`` imports this module on first use, so a command on
exact values never loads numpy.  The thresholds of ``FLOAT`` are
documented per operation; its operations mirror those of ``arith.EXACT``.
"""

from itertools import accumulate, repeat

import numpy as np


def kron(a, b):
    """``np.kron`` of the last two axes (the same products), broadcast over the leading ones."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3], out.shape[-2] * out.shape[-1]))


def singular_rank(s, rtol, floor=0.0):
    """How many of the descending singular values ``s`` exceed ``rtol *
    max(s[0], floor)``; 0 for an empty spectrum.  The package's one count of
    singular values."""
    return int(np.sum(s > rtol * max(float(s[0]), floor))) if s.size else 0


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


class _Float:
    def coerce(self, a):
        return np.asarray(a, dtype=complex)

    to_float = coerce

    def from_exact(self, a):
        return np.array([[float(x) for x in row] for row in a])

    def zeros(self, m, n):
        return np.zeros((m, n), dtype=complex)

    def eye(self, n):
        return np.eye(n, dtype=complex)

    def shape(self, a):
        return a.shape

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    mul = staticmethod(np.matmul)  # a @ b, without a Python frame per product

    def powers(self, a, count):
        """a^1 .. a^count."""
        return accumulate(repeat(a, count), np.matmul)

    trace = staticmethod(np.ndarray.trace)  # the method np.trace forwards to, without its wrapper

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
        if rtol is None:
            rtol = max(a.shape) * np.finfo(float).eps
        return singular_rank(np.linalg.svd(a, compute_uv=False), rtol, floor)

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

    def solve(self, a, b):
        """Least-squares solution, with no residual check (see ``higgs_to_quiver``)."""
        return np.linalg.lstsq(a, b, rcond=None)[0]

    def contains(self, span, vecs, tol):
        """Column space of vecs inside that of span: the residual of the
        projection onto span is at most ``tol`` times max(1, |vecs|)."""
        q, _ = np.linalg.qr(span)
        resid = vecs - q @ (q.conj().T @ vecs)
        scale = max(1.0, float(np.linalg.norm(vecs)))
        return bool(np.linalg.norm(resid) <= tol * scale)

    def span_tracker(self, tol):
        return _FloatSpan(tol)


FLOAT = _Float()
