"""Canonical bracket on the doubled-quiver phase space and its checks.

Outward entries are positions and inward entries are momenta, paired by
the trace form: the slot ``f[a][b]`` is conjugate to ``g[b][a]``.  For
observables F, G with gradient arrays dF/df, dF/dg the bracket is

    {F, G} = sum over arms and levels of
             Tr(dG/dg . dF/df) - Tr(dF/dg . dG/df),

which makes {f-entry, conjugate g-entry} = +1 and reproduces the entry
bracket of the pole-wise endomorphism valued function

    phi(z) = sum_m (g_1^m f_1^m) / (z - x_m):

    {phi_ij(z), phi_kl(w)} = delta_jk Delta_il(z,w) - delta_li Delta_kj(z,w),

where Delta(z,w) = (phi(z) - phi(w)) / (w - z).  Gradients of trace
observables are closed-form via the cyclic rule; every factory can verify
its oracle against central finite differences at construction.

All derivatives are holomorphic (no conjugation): observables here are
polynomial in the matrix entries, and a real-step central difference of a
holomorphic function estimates exactly the complex derivative.
"""

from dataclasses import dataclass

import numpy as np

from .floatarith import kron, singular_rank
from .starrep import StarQuiver, StarRep, moment_residual, random_rep, worst


@dataclass
class Gradient:
    """Arrays shaped like the representation's f and g slots."""

    f: list
    g: list


def zero_gradient(quiver: StarQuiver) -> Gradient:
    shapes = [list(zip(quiver.dims(j)[1:], quiver.dims(j))) for j in range(quiver.n_arms)]
    return Gradient(
        f=[[np.zeros(s, dtype=complex) for s in arm] for arm in shapes],
        g=[[np.zeros(s[::-1], dtype=complex) for s in arm] for arm in shapes],
    )


def _matrices(x) -> list:
    """The f then the g matrices of x, arm by arm and level by level: the
    order of the packed coordinates."""
    return [m for arms in (x.f, x.g) for arm in arms for m in arm]


def _offsets(mats):
    """Where each of ``mats`` starts in the packed vector, then its length."""
    return np.cumsum([0] + [m.size for m in mats])


@dataclass
class Observable:
    """``value`` broadcasts over a leading stack axis on any one slot: with
    that slot a stack (N, m, n) it returns the N values its rows make, or one
    complex when it does not read that slot; with no stack, one complex."""

    quiver: StarQuiver
    value: object  # rep -> complex, or (N,) values over a stacked slot
    grad: object  # rep -> Gradient
    label: str = ""
    levels: float = float("inf")  # the gradient is zero past this many levels of each arm


def _per_row(v):
    """A stacked value as is, an unstacked one as a Python complex."""
    return v if np.ndim(v) else complex(v)


class GradientOracleError(RuntimeError):
    pass


# the step of the central differences of ``fd_gradient``
FD_STEP = 1e-6


def fd_gradient(obs: Observable, rep: StarRep) -> Gradient:
    """Central finite differences entry by entry (real step ``FD_STEP``;
    exact for the holomorphic polynomials used here, up to truncation
    error), one ``obs.value`` call per slot: a slot of k entries becomes a
    stack whose row e has entry e at x + FD_STEP and row k + e at x - FD_STEP,
    and is put back, also when ``obs.value`` raises.  Every entry of every
    level is evaluated, whatever ``obs.levels`` claims.  Real and imaginary
    parts are divided apart, which rounds as Python's complex / float."""
    out = zero_gradient(rep.quiver)
    for arm, grads in zip((*rep.f, *rep.g), (*out.f, *out.g)):
        for i, (mat, grad) in enumerate(zip(arm, grads)):
            k, at = mat.size, np.arange(mat.size)
            stack = np.repeat(mat[None], 2 * k, axis=0)
            flat = stack.reshape(2 * k, k)
            flat[at, at] += FD_STEP
            flat[k + at, at] -= FD_STEP
            try:
                arm[i] = stack
                vals = np.broadcast_to(np.asarray(obs.value(rep), dtype=complex), (2 * k,))
            finally:
                arm[i] = mat
            grad[...] = ((vals[:k] - vals[k:]).view(float) / (2 * FD_STEP)).view(complex).reshape(grad.shape)
    return out


# central differences at FD_STEP err by ~1e-10 relative, a wrong oracle term by O(1)
SELFCHECK_RTOL = 1e-4


def _selfcheck(obs: Observable):
    """``obs.grad`` against ``fd_gradient`` slot by slot, at a random
    representation from a fixed seed: every entry of a slot lies within
    ``SELFCHECK_RTOL`` times max(1, the slot's largest finite-difference
    entry), the rule of the ``poisson`` benchmark's gradient gate."""
    rep = random_rep(obs.quiver, np.random.default_rng(911), scale=0.7)
    for got, fd in zip(_matrices(obs.grad(rep)), _matrices(fd_gradient(obs, rep))):
        err, scale = np.max(np.abs(got - fd)), max(1.0, np.max(np.abs(fd)))
        if not err <= SELFCHECK_RTOL * scale:
            raise GradientOracleError(f"{obs.label}: oracle off finite differences by {err:.2e} in a slot of scale {scale:.2e}")


def bracket(f_obs: Observable, g_obs: Observable, rep: StarRep) -> complex:
    """Canonical bracket evaluated at the representation.  The sum skips the
    levels past ``Observable.levels``, whose terms are exact zeros."""
    if f_obs.quiver != rep.quiver or g_obs.quiver != rep.quiver:
        raise ValueError("observables and representation live on different quivers")
    gf, gg = f_obs.grad(rep), g_obs.grad(rep)
    cut = min(f_obs.levels, g_obs.levels)
    total = 0.0 + 0.0j
    for j in range(rep.quiver.n_arms):
        for i in range(min(cut, len(rep.f[j]))):
            total += np.trace(gg.g[j][i] @ gf.f[j][i])
            total -= np.trace(gf.g[j][i] @ gg.f[j][i])
    return total


# ---------------------------------------------------------------------------
# the pole-wise endomorphism and its observables


def _residues(rep: StarRep):
    """The residue g_1 f_1 of every arm, in arm order."""
    return [np.asarray(rep.residue(m)) for m in range(rep.quiver.n_arms)]


def _phi_at(residues, points, z, r):
    """phi(z) (r x r) from the residues of ``_residues``; raises ValueError at a marked point."""
    zc = complex(z)
    out = np.zeros((r, r), dtype=complex)
    for m, res in enumerate(residues):
        xm = complex(points[m])
        if zc == xm:
            raise ValueError(f"evaluation at the pole {z}")
        out = out + res / (zc - xm)  # broadcasts over a stacked residue
    return out


def phi_value(rep: StarRep, points, z) -> np.ndarray:
    """phi(z); raises ValueError when z is a marked point."""
    return _phi_at(_residues(rep), points, z, rep.quiver.rank)


def delta(rep: StarRep, points, z, w) -> np.ndarray:
    """(phi(z) - phi(w)) / (w - z), for z != w."""
    if z == w:
        raise ValueError("delta needs z != w")
    return (phi_value(rep, points, z) - phi_value(rep, points, w)) / (complex(w) - complex(z))


def _trace_power_slots(rep: StarRep, points, t, zc, pw):
    """The level-1 f- and g-gradients of Tr(phi(zc)^t) on the nonempty arms,
    given pw = phi(zc)^(t-1); see ``trace_power_observable``.

    ``pw`` may be a stack (..., r, r) of powers, with t and zc scalars or
    arrays that broadcast against its leading axes; each slot then carries
    the same leading axes.  On one (r, r) power with scalar t and zc every
    product is the per-matrix one, so the slots keep their bits."""
    fs, gs = [], []
    for m in range(rep.quiver.n_arms):
        if rep.f[m]:
            c = np.asarray(t / (zc - complex(points[m])))[..., None, None]
            fs.append(c * np.swapaxes(pw @ rep.g[m][0], -1, -2))
            gs.append(c * np.swapaxes(rep.f[m][0] @ pw, -1, -2))
    return fs, gs


def trace_power_observable(
    quiver: StarQuiver, points, t: int, z, selfcheck=True
) -> Observable:
    """Tr(phi(z)^t) with its closed-form gradient.

    Only the first-level slots carry gradient: for arm m the f-gradient is
    t (phi^{t-1} g_1^m)^T / (z - x_m) and the g-gradient is
    t (f_1^m phi^{t-1})^T / (z - x_m), by the cyclic trace rule.
    """
    if t < 1:
        raise ValueError("trace power must be at least 1")
    zc = complex(z)

    def value(rep):
        return _per_row(np.trace(np.linalg.matrix_power(phi_value(rep, points, z), t), axis1=-2, axis2=-1))

    def grad(rep):
        out = zero_gradient(quiver)
        pw = np.linalg.matrix_power(phi_value(rep, points, z), t - 1)
        fs, gs = _trace_power_slots(rep, points, t, zc, pw)
        for m, gf, gg in zip([m for m in range(quiver.n_arms) if rep.f[m]], fs, gs):
            out.f[m][0], out.g[m][0] = gf, gg
        return out

    obs = Observable(quiver=quiver, value=value, grad=grad, label=f"I_{t}({z})", levels=1)
    if selfcheck:
        _selfcheck(obs)
    return obs


def _entry_slots(rep: StarRep, points, z):
    """The level-1 gradients of every entry of phi(z): one (m, fs, gs) per
    nonempty arm m, where fs[i, j] (g_1 x r) and gs[i, j] (r x g_1) are the
    f- and g-gradients of phi_ij(z).  With c = 1 / (z - x_m) the only
    nonzero column of fs[i, j] is column j, c times row i of g_1^m, and the
    only nonzero row of gs[i, j] is row i, c times column j of f_1^m.

    Raises ValueError at a marked point, as ``phi_value`` does."""
    zc, r = complex(z), rep.quiver.rank
    if any(zc == complex(x) for x in points):
        raise ValueError(f"evaluation at the pole {z}")
    on, out = np.arange(r), []
    for m, (fm, gm) in enumerate(zip(rep.f, rep.g)):
        if fm:
            c = 1.0 / (zc - complex(points[m]))
            fs = np.zeros((r, r) + fm[0].shape, dtype=complex)
            gs = np.zeros((r, r) + gm[0].shape, dtype=complex)
            fs[:, on, :, on] = c * gm[0]  # fs[i, j, :, j] = c g[i, :]
            gs[on, :, on, :] = (c * fm[0]).T  # gs[i, j, i, :] = c f[:, j]
            out.append((m, fs, gs))
    return out


def entry_observable(
    quiver: StarQuiver, points, z, row: int, col: int, selfcheck=True
) -> Observable:
    """The (row, col) entry of phi(z) with the closed-form gradient of
    ``_entry_slots``."""
    r = quiver.rank
    if not (0 <= row < r and 0 <= col < r):
        raise IndexError("entry indices out of range")

    def value(rep):
        return _per_row(phi_value(rep, points, z)[..., row, col])

    def grad(rep):
        out = zero_gradient(quiver)
        for m, fs, gs in _entry_slots(rep, points, z):
            out.f[m][0], out.g[m][0] = fs[row, col], gs[row, col]
        return out

    obs = Observable(
        quiver=quiver, value=value, grad=grad, label=f"phi[{row},{col}]({z})", levels=1
    )
    if selfcheck:
        _selfcheck(obs)
    return obs


def entry_bracket_residuals(rep: StarRep, points, z, w) -> np.ndarray:
    """The (r, r, r, r) array of
    |{phi_ij(z), phi_kl(w)} - (delta_jk Delta_il - delta_li Delta_kj)|.

    The entry gradients of every (i, j) come stacked from ``_entry_slots``,
    the closed form that ``entry_observable`` exposes, so the sweep checks
    the observable's gradient.  They touch level 1 only, where ``bracket``'s
    trace form is Tr(G_g F_f) = vec(G_g) . vec(F_f^T): with the rows
    u = vec(F_f^T) and v = vec(F_g), stacked for every (i, j) at z and
    every (k, l) at w, all r^4 brackets are U_z V_w^T - V_z U_w^T.  The
    products are summed arm by arm, + then -, in ``bracket``'s order, so
    each residual rounds as the per-pair bracket does.  Raises ValueError
    when z or w is a marked point.
    """
    r = rep.quiver.rank

    def rows(x):
        slots = _entry_slots(rep, points, x)
        return [fs.swapaxes(-1, -2).reshape(r * r, -1) for _, fs, _ in slots], [gs.reshape(r * r, -1) for _, _, gs in slots]

    (uz, vz), (uw, vw) = rows(z), rows(w)
    lhs = np.zeros((r * r, r * r), dtype=complex)
    for a, b, c, d in zip(uz, vw, vz, uw):
        lhs += a @ b.T
        lhs -= c @ d.T
    lhs = lhs.reshape(r, r, r, r)
    dm, eye = delta(rep, points, z, w), np.eye(r)
    rhs = np.einsum("jk,il->ijkl", eye, dm) - np.einsum("li,kj->ijkl", eye, dm)
    return np.abs(lhs - rhs)


_last_sweep = None  # (key, residuals) of the last entry_bracket_residuals read


def check_entry_bracket(rep: StarRep, points, z, w, i, j, k, l) -> float:
    """|{phi_ij(z), phi_kl(w)} - (delta_jk Delta_il - delta_li Delta_kj)|,
    read from ``entry_bracket_residuals(rep, points, z, w)``.  The last
    sweep is kept, keyed by the content of its inputs, so the r^4 calls at
    one (z, w) run one sweep and any edit of those inputs runs a new one."""
    global _last_sweep
    r = rep.quiver.rank
    if not all(0 <= x < r for x in (i, j, k, l)):
        raise IndexError("entry indices out of range")
    # Entry observables have levels=1: their gradients read only the level-1
    # slots, and Delta only the residues g_1 f_1, so the level-1 bytes are
    # all of rep that the sweep reads.
    key = (rep.quiver, tuple(points), z, w, tuple(arm[0].tobytes() for arm in (*rep.f, *rep.g) if arm))
    sweep = _last_sweep  # one read, so another thread's store cannot split key and array
    if sweep is None or sweep[0] != key:
        sweep = _last_sweep = (key, entry_bracket_residuals(rep, points, z, w))
    return sweep[1][i, j, k, l]


def check_commutativity(rep: StarRep, points, t, t_prime, z, w) -> float:
    """|{Tr(phi(z)^t), Tr(phi(w)^t')}| at the representation.

    The gradients are ``trace_power_observable``'s, formed in one pass: the
    residues once, phi(z)^(t-1) and phi(w)^(t'-1) once, and the level-1
    slots of both observables on every arm whose g_1 has one shape by one
    stacked product.  Each coefficient t / (z - x_m) is a Python complex
    and each product the per-matrix one, so the slots keep the observables'
    bits; the arm terms Tr(G_g F_f) and Tr(F_g G_f) are folded in arm
    order, + then -, as ``bracket`` folds them."""
    if min(t, t_prime) < 1:
        raise ValueError("trace power must be at least 1")
    r, residues = rep.quiver.rank, _residues(rep)
    at = ((z, t), (w, t_prime))
    pw = np.stack([np.linalg.matrix_power(_phi_at(residues, points, x, r), s - 1) for x, s in at])[:, None]
    shapes = {}
    for m, gm in enumerate(rep.g):
        if gm:
            shapes.setdefault(gm[0].shape, []).append(m)
    terms = {}
    for arms in shapes.values():
        f, g = np.stack([rep.f[m][0] for m in arms]), np.stack([rep.g[m][0] for m in arms])
        c = np.array([[s / (complex(x) - complex(points[m])) for m in arms] for x, s in at])[..., None, None]
        fs = c * np.swapaxes(pw @ g, -1, -2)  # (2, arms, g_1, r): the f-slots at z, then at w
        gs = c * np.swapaxes(f @ pw, -1, -2)
        terms.update(zip(arms, np.trace(gs[::-1] @ fs, axis1=-2, axis2=-1).T))
    total = 0.0 + 0.0j
    for m in sorted(terms):
        total += terms[m][0]
        total -= terms[m][1]
    return abs(total)


# ---------------------------------------------------------------------------
# quadratic observables (closed under the bracket; used for Jacobi tests)


class SignedPermutation:
    """The d x d matrix whose row a holds one entry, ``sign[a]``, in column
    ``perm[a]``, applied to vectors without forming it: ``J @ x`` is
    ``sign * x[perm]``, and ``x @ J`` is ``-(J @ x)`` because the pairing
    is antisymmetric.  With one entry per row and column, each product is
    the dense one's sum of a single term, so it keeps the dense product's
    bits.  ``sign`` is complex, so a float operand gives a complex product,
    as a complex dense matrix would."""

    __array_ufunc__ = None  # ndarray @ J defers to __rmatmul__

    def __init__(self, perm, sign):
        self.perm, self.sign = np.asarray(perm, dtype=np.intp), np.asarray(sign, dtype=complex)

    def __matmul__(self, x):
        x = np.asarray(x)
        if x.shape != self.perm.shape:
            raise ValueError(f"matmul: an operand of shape {x.shape} against a pairing of dimension {self.perm.size}")
        return self.sign * x[self.perm]

    def __rmatmul__(self, x):
        return -(self @ x)


def poisson_tensor(quiver: StarQuiver) -> SignedPermutation:
    """Constant antisymmetric pairing J with {v_a, v_b} = J[a, b]: entry
    [a, b] of each f matrix against entry [b, a] of its g matrix, +1 on the
    f rows and -1 on the g rows."""
    mats = _matrices(zero_gradient(quiver))
    at, half = _offsets(mats), len(mats) // 2
    perm = np.empty(at[-1], dtype=np.intp)
    for k, m in enumerate(mats[:half]):
        f_at = at[k] + np.arange(m.size).reshape(m.shape)
        g_at = at[half + k] + np.arange(m.size).reshape(m.shape[::-1]).T
        perm[f_at], perm[g_at] = g_at, f_at
    return SignedPermutation(perm, np.where(np.arange(at[-1]) < at[half], 1.0, -1.0))


def pack_rep(rep) -> np.ndarray:
    """A representation's or a Gradient's entries in ``_matrices`` order,
    each matrix row-major; leading stack axes broadcast, to (..., d)."""
    mats = _matrices(rep)
    lead = np.broadcast_shapes(*(m.shape[:-2] for m in mats))
    parts = [(m if m.shape[:-2] == lead else np.broadcast_to(m, lead + m.shape[-2:])).reshape(*lead, -1) for m in mats]
    return np.concatenate(parts, axis=-1) if parts else np.zeros(0, dtype=complex)


class QuadraticObservable:
    """F(v) = v^T S v / 2 + b^T v + c over the packed phase coordinates.

    The bracket of two quadratics is again quadratic, which keeps Jacobi
    checks structurally exact: with J the Poisson tensor and the gradient
    H v + b, {A, B} = (grad A)^T J (grad B) has the Hessian
    H_A J H_B - H_B J H_A (H symmetric, J^T = -J), b' = H_A J b_B - H_B J b_A
    and c' = b_A^T J b_B.  A ``QuadraticBracket`` applies its Hessian to a
    vector through its operands', so no d x d matrix is formed for it, and
    forms b' and c' only when they are read: its gradient at v is
    H_A J grad B(v) - H_B J grad A(v).
    """

    def __init__(self, quiver, s, b, c=0.0):
        self.quiver = quiver
        self.s = np.asarray(s)
        self.b = np.asarray(b)
        self.c = c

    @classmethod
    def random(cls, quiver, rng, scale=1.0):
        d = quiver.phase_dim()
        s, n = np.empty((d, d), dtype=complex), np.empty((d, d))
        # each part is n + n.T, with both n drawn into one buffer: s += s.T
        # copies the overlapping s.T, and a fresh n per part faults in new
        # pages.  The numbers and the stream are rng.standard_normal((d, d))'s.
        for part in (s.real, s.imag):
            rng.standard_normal(out=n)
            np.add(n, n.T, out=part)
        s *= scale / 2
        b = scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        return cls(quiver, s, b, complex(rng.standard_normal()))

    def hessian_product(self, u):
        return self.s @ u

    def value_at(self, vec):
        return complex(vec @ self.s @ vec / 2 + self.b @ vec + self.c)

    def gradient_at(self, vec):
        return self.hessian_product(vec) + self.b

    def bracket_with(self, other, jmat):
        """The bracket {self, other} as a new, matrix-free quadratic."""
        return QuadraticBracket(self, other, jmat)


class QuadraticBracket(QuadraticObservable):
    """{A, B} of two quadratic observables; see ``QuadraticObservable``."""

    def __init__(self, left, right, jmat):
        self.quiver, self.left, self.right, self.jmat = left.quiver, left, right, jmat

    @property
    def b(self):
        ha, hb, j = self.left.hessian_product, self.right.hessian_product, self.jmat
        return ha(j @ self.right.b) - hb(j @ self.left.b)

    @property
    def c(self):
        return complex(self.left.b @ self.jmat @ self.right.b)

    def hessian_product(self, u):
        ha, hb, j = self.left.hessian_product, self.right.hessian_product, self.jmat
        return ha(j @ hb(u)) - hb(j @ ha(u))

    def gradient_at(self, vec):
        ha, hb, j = self.left.hessian_product, self.right.hessian_product, self.jmat
        return ha(j @ self.right.gradient_at(vec)) - hb(j @ self.left.gradient_at(vec))

    def value_at(self, vec):
        return complex(self.left.gradient_at(vec) @ self.jmat @ self.right.gradient_at(vec))


# ---------------------------------------------------------------------------
# moment entries as observables, tangent spaces, Hamiltonian counting


def moment_entry_gradients(rep: StarRep):
    """Gradients of every moment-map entry at the representation, as rows
    of a Jacobian over the packed coordinates: the central component's
    entries first, then each arm vertex's, every component row-major.

    Each component is a sum of products g f or f g, and in row-major
    coordinates vec(A X B) = (A (x) B^T) vec(X), so every block of a row
    is a Kronecker product, as in ``dsolve.orbit_jacobian``.
    """
    mats = _matrices(rep)
    at, half = _offsets(mats), len(mats) // 2

    def rows(size, blocks):
        out = np.zeros((size * size, at[-1]), dtype=complex)
        for k, block in blocks:  # the f matrix k of _matrices pairs with g matrix half + k
            out[:, at[k] : at[k + 1]] += block
        return out

    eye = np.eye(rep.quiver.rank)
    center, arms, k = [], [], 0
    for fs, gs in zip(rep.f, rep.g):
        # central component sum_m g_1^m f_1^m
        if fs:
            center += [(k, kron(gs[0], eye)), (half + k, kron(eye, fs[0].T))]
        # arm components f_i g_i - g_{i+1} f_{i+1} (tip: f_s g_s)
        for i, (fi, gi) in enumerate(zip(fs, gs)):
            e = np.eye(fi.shape[0])
            blocks = [(k + i, kron(e, gi.T)), (half + k + i, kron(fi, e))]
            if i + 1 < len(fs):
                blocks += [(k + i + 1, -kron(gs[i + 1], e)), (half + k + i + 1, -kron(e, fs[i + 1].T))]
            arms.append(rows(fi.shape[0], blocks))
        k += len(fs)
    return np.vstack([rows(rep.quiver.rank, center)] + arms)


# Relative singular-value cuts.  The moment Jacobian is linear in the entries,
# so its zero singular values round to ~1e-15 of the largest: 1e-8 is midway.
MOMENT_RANK_RTOL = 1e-8
# the Hamiltonian rows (powers up to phi^(r+2), on that tangent basis) round coarser
HAMILTONIAN_RANK_RTOL = 1e-6


def moment_zero_tangent(rep: StarRep) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of the moment
    differential at the representation: the right singular vectors of
    its Jacobian past the Jacobian's rank, all of them at rank 0."""
    _, s, vh = np.linalg.svd(moment_entry_gradients(rep))
    return vh[singular_rank(s, MOMENT_RANK_RTOL) :].conj().T


def _level1_coordinates(quiver: StarQuiver) -> np.ndarray:
    """The packed coordinates of the level-1 slots, ascending: every
    nonempty arm's f_1, then every g_1, as ``_trace_power_slots`` lists them."""
    first = [i == 0 for _ in "fg" for chain in quiver.arms for i in range(len(chain))]
    return np.flatnonzero(np.repeat(first, [m.size for m in _matrices(zero_gradient(quiver))]))


def _hamiltonian_rows(rep: StarRep, points, ts, zs) -> np.ndarray:
    """The level-1 slots of d Tr(phi(z)^t) for every t in ``ts`` and z in
    ``zs``, t-major, one row each in ``_level1_coordinates`` order.

    phi (``_phi_at``, from residues formed once) is stacked over the sample
    points, the powers phi^0 .. phi^(max t - 1) formed as one stacked running
    product, and the slots of all (t, z) by one ``_trace_power_slots`` call."""
    r, zc = rep.quiver.rank, np.array([complex(z) for z in zs])
    residues = _residues(rep)
    phi = np.stack([_phi_at(residues, points, z, r) for z in zs])
    powers = np.empty((max(ts),) + phi.shape, dtype=complex)
    powers[0] = np.eye(r)
    for k in range(1, max(ts)):
        powers[k] = powers[k - 1] @ phi
    t = np.array(ts)
    fs, gs = _trace_power_slots(rep, points, t[:, None], zc, powers[t - 1])
    n_rows = t.size * zc.size
    return np.concatenate([np.zeros((n_rows, 0), dtype=complex), *(x.reshape(n_rows, -1) for x in fs + gs)], axis=1)


def hamiltonian_samples(points, count):
    """``count`` real sample points for the Hamiltonian count: the half
    steps lo - h/2, lo + h/2, lo + 3h/2, ... of the mean spacing h of the
    marked points (1 for fewer than two), from the lowest point lo, skipping
    any within h/4 of a marked point.  At the points 0..n-1 they are
    -1/2, 1/2, 3/2, ...  Samples that interleave with the poles keep the
    sampled differentials apart; as many on one side of all the poles see
    nearly the same phi, and the rank cut drops true directions."""
    lo = min(points, default=0.0)
    h = (max(points) - lo) / (len(points) - 1) if len(points) > 1 else 1.0
    zs, k = [], 0
    while len(zs) < count:
        z = lo + (k - 0.5) * h
        if all(abs(z - x) >= h / 4 for x in points):
            zs.append(z)
        k += 1
    return zs


def independent_hamiltonian_count(rep: StarRep, points, ts, zs) -> int:
    """Rank of the sampled trace-power differentials restricted to the
    moment-zero tangent space at the representation.  The differentials
    vanish past level 1, so the rows (``_hamiltonian_rows``) pair only the
    level-1 slots with the matching rows of the tangent basis."""
    if not len(ts):
        raise ValueError("ts: no trace power to sample")
    if not len(zs):
        raise ValueError("zs: no sample point")
    if min(ts) < 1:
        raise ValueError("trace power must be at least 1")
    tangent = moment_zero_tangent(rep)[_level1_coordinates(rep.quiver)]
    rows = _hamiltonian_rows(rep, points, ts, zs) @ tangent  # holomorphic pairing
    return singular_rank(np.linalg.svd(rows, compute_uv=False), HAMILTONIAN_RANK_RTOL)


# ---------------------------------------------------------------------------
# the check of ``poisson check``

# the Hamiltonians are counted only below this moment residual, on the moment-zero locus
HAMILTONIAN_MOMENT_TOL = 1e-6


@dataclass(frozen=True)
class PoissonReport:
    """Worst residuals (NaN when one overflowed); no count off the locus."""

    gradient_oracles_ok: bool
    entry_bracket_max_residual: float
    commutativity_max_residual: float
    jacobi_max_residual: float
    moment_residual: float
    independent_hamiltonians: int | None


def check(rep: StarRep, points, rng, grid: int) -> PoissonReport:
    """The bracket identities at a float representation, drawn from ``rng``
    in this order: the gradient oracles against finite differences,
    max(1, grid // 20) entry-bracket sweeps, ``grid`` commutativity checks
    and max(1, grid // 10) Jacobi triples, each (z, w) two distinct quarter
    steps 1/4 or more from every marked point; then the count at levels
    1..r+2 on the moment-zero locus."""
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
    q, n, r = rep.quiver, rep.quiver.n_arms, rep.quiver.rank
    pool = [k / 4 for k in range(-20, 8 * n + 20) if all(abs(k / 4 - x) >= 0.25 for x in points)]

    def draw_zw():
        return rng.choice(pool, size=2, replace=False).tolist()

    try:
        trace_power_observable(q, points, 3, draw_zw()[0], selfcheck=True)
        entry_observable(q, points, draw_zw()[0], 0, r - 1, selfcheck=True)
        oracles_ok = True
    except GradientOracleError:
        oracles_ok = False
    entry = [entry_bracket_residuals(rep, points, *draw_zw()).max() for _ in range(max(1, grid // 20))]
    comm = []
    for _ in range(grid):
        z, w = draw_zw()
        comm.append(check_commutativity(rep, points, int(rng.integers(1, 5)), int(rng.integers(1, 5)), z, w))
    jmat, v = poisson_tensor(q), pack_rep(rep)
    jacobi = []
    for _ in range(max(1, grid // 10)):
        a, b, c = (QuadraticObservable.random(q, rng, 0.5) for _ in range(3))
        lhs = a.bracket_with(b.bracket_with(c, jmat), jmat).value_at(v)
        rhs = a.bracket_with(b, jmat).bracket_with(c, jmat).value_at(v) + b.bracket_with(a.bracket_with(c, jmat), jmat).value_at(v)
        jacobi.append(abs(lhs - rhs))
    resid, count = moment_residual(rep), None
    if resid < HAMILTONIAN_MOMENT_TOL:
        # each level's numerator has degree at most r(n - 2): one sample more
        # than it needs, and at least one when that bound is not positive
        zs = hamiltonian_samples(points, max(1, r * (n - 2) + 2))
        count = independent_hamiltonian_count(rep, points, list(range(1, r + 3)), zs)
    return PoissonReport(oracles_ok, worst(entry), worst(comm), worst(jacobi), resid, count)
