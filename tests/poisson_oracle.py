"""Reference bracket and finite differences for differential tests.

``bracket_with`` is the library's former dense bracket of two quadratic
observables: it forms the bracket's Hessian S_F J S_G + (S_F J S_G)^T as a
d x d matrix and returns a leaf ``QuadraticObservable`` holding it, so a
nested call brackets two dense leaves.  ``fd_gradient`` is the former
central-difference gradient, which perturbs two fresh copies of the
representation per entry instead of the representation itself.

``to_observable`` is the former ``QuadraticObservable.to_observable``: a
quadratic as a generic ``Observable``, whose gradient
``gradient_from_vector`` unpacks in the order ``pack_rep`` packs.  Only
tests bracket a quadratic as a generic observable; the library's Jacobi
check applies the quadratics' own brackets.

``dense_tensor`` is the former ``poisson_tensor``, the pairing as a dense
d x d complex matrix, and ``quadratic_draw`` the former
``QuadraticObservable.random``, which symmetrized with ``s += s.T``.
``moment_zero_tangent`` is the former tangent basis, which skipped the SVD
of a Jacobian without rows and returned the identity at rank 0.

``check_commutativity`` is the former per-observable commutativity check:
two ``trace_power_observable``s and their generic ``bracket``.
``entry_gradient`` is the former closed form of one entry observable's
gradient, written entry by entry, and ``entry_bracket_residuals`` the former
sweep, which stacked the 2 r^2 gradients it returns.
"""

import numpy as np

from common import copy_rep
from starquiver.floatarith import singular_rank
from starquiver.poisson import (
    MOMENT_RANK_RTOL,
    Observable,
    QuadraticObservable,
    _matrices,
    _offsets,
    bracket,
    delta,
    moment_entry_gradients,
    pack_rep,
    trace_power_observable,
    zero_gradient,
)


def bracket_with(self, other, jmat):
    """The bracket as a new quadratic observable."""
    sjs = self.s @ jmat @ other.s
    s_new = sjs + sjs.T
    b_new = self.s @ jmat @ other.b - other.s @ jmat @ self.b
    c_new = complex(self.b @ jmat @ other.b)
    return QuadraticObservable(self.quiver, s_new, b_new, c_new)


def fd_gradient(obs, rep, h=1e-6):
    """Central finite differences entry by entry (real step; exact for the
    holomorphic polynomials used here, up to truncation error)."""
    out = zero_gradient(rep.quiver)
    for kind in ("f", "g"):
        slots = rep.f if kind == "f" else rep.g
        grads = out.f if kind == "f" else out.g
        for j in range(rep.quiver.n_arms):
            for i in range(len(slots[j])):
                m, n = slots[j][i].shape
                for a in range(m):
                    for b in range(n):
                        plus, minus = copy_rep(rep), copy_rep(rep)
                        (plus.f if kind == "f" else plus.g)[j][i][a, b] += h
                        (minus.f if kind == "f" else minus.g)[j][i][a, b] -= h
                        grads[j][i][a, b] = (obs.value(plus) - obs.value(minus)) / (2 * h)
    return out


def gradient_from_vector(quiver, vec):
    """The gradient whose entries, packed as ``pack_rep`` packs them, are ``vec``."""
    out = zero_gradient(quiver)
    at = 0
    for m in (m for arms in (out.f, out.g) for arm in arms for m in arm):
        m[...] = vec[at:at + m.size].reshape(m.shape)
        at += m.size
    return out


def to_observable(quad):
    """The quadratic ``quad`` as an ``Observable``."""

    def value(rep):  # value_at row by row, so each row rounds as alone
        v = pack_rep(rep)
        return quad.value_at(v) if v.ndim == 1 else np.array([quad.value_at(row) for row in v])

    def grad(rep):
        return gradient_from_vector(quad.quiver, quad.gradient_at(pack_rep(rep)))

    return Observable(quad.quiver, value, grad, label="quadratic")


def dense_tensor(quiver):
    """Constant antisymmetric pairing J with {v_a, v_b} = J[a, b]: entry
    [a, b] of each f matrix against entry [b, a] of its g matrix."""
    mats = _matrices(zero_gradient(quiver))
    at, half = _offsets(mats), len(mats) // 2
    jmat = np.zeros((at[-1], at[-1]), dtype=complex)  # J @ u casts no float J
    for k, m in enumerate(mats[:half]):
        f_at = at[k] + np.arange(m.size).reshape(m.shape)
        g_at = at[half + k] + np.arange(m.size).reshape(m.shape[::-1]).T
        jmat[f_at, g_at] = 1.0
        jmat[g_at, f_at] = -1.0
    return jmat


def quadratic_draw(quiver, rng, scale=1.0):
    """The (s, b, c) of a random quadratic, drawn as the library did."""
    d = quiver.phase_dim()
    s = np.empty((d, d), dtype=complex)
    s.real, s.imag = rng.standard_normal((d, d)), rng.standard_normal((d, d))
    s += s.T
    s *= scale / 2
    b = scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    return s, b, complex(rng.standard_normal())


def moment_zero_tangent(rep):
    jac = moment_entry_gradients(rep)
    rk = 0
    if jac.shape[0]:
        _, s, vh = np.linalg.svd(jac)
        rk = singular_rank(s, MOMENT_RANK_RTOL)
    return vh[rk:].conj().T if rk else np.eye(jac.shape[1], dtype=complex)


def check_commutativity(rep, points, t, t_prime, z, w):
    it = trace_power_observable(rep.quiver, points, t, z, selfcheck=False)
    it2 = trace_power_observable(rep.quiver, points, t_prime, w, selfcheck=False)
    return abs(bracket(it, it2, rep))


def entry_gradient(rep, points, z, row, col):
    """The gradient of phi_{row, col}(z), one column and one row per arm."""
    out, zc = zero_gradient(rep.quiver), complex(z)
    for m in range(rep.quiver.n_arms):
        if rep.f[m]:
            c = 1.0 / (zc - complex(points[m]))
            out.f[m][0][:, col] = c * rep.g[m][0][row, :]
            out.g[m][0][row, :] = c * rep.f[m][0][:, col]
    return out


def entry_bracket_residuals(rep, points, z, w):
    q, r = rep.quiver, rep.quiver.rank
    arms = [m for m in range(q.n_arms) if rep.f[m]]

    def rows(x):
        grads = [entry_gradient(rep, points, x, i, j) for i in range(r) for j in range(r)]
        u = [np.stack([gr.f[m][0] for gr in grads]).transpose(0, 2, 1).reshape(r * r, -1) for m in arms]
        v = [np.stack([gr.g[m][0] for gr in grads]).reshape(r * r, -1) for m in arms]
        return u, v

    (uz, vz), (uw, vw) = rows(z), rows(w)
    lhs = np.zeros((r * r, r * r), dtype=complex)
    for a, b, c, d in zip(uz, vw, vz, uw):
        lhs += a @ b.T
        lhs -= c @ d.T
    lhs = lhs.reshape(r, r, r, r)
    dm, eye = delta(rep, points, z, w), np.eye(r)
    rhs = np.einsum("jk,il->ijkl", eye, dm) - np.einsum("li,kj->ijkl", eye, dm)
    return np.abs(lhs - rhs)
