"""Reference rational refinement for differential tests.

This is the library's former ``exact_refine``: the nested flag columns are
snapped entry by entry to ``Fraction``s, each point's strong-preservation
space is an exact ``Fraction`` nullspace, and the zero-sum condition is one
``Fraction`` system over all coefficient vectors, solved anchored at the
floating solution.  It shares no elimination kernel with the integer
refinement in ``starquiver.dsolve``, which is what makes it a useful
oracle.  Its exact matrices differ from the library's (the two solve the
same constraints with different free unknowns); the certified verdicts
must not.
"""

from fractions import Fraction

import numpy as np

from linalg_oracle import nullspace, rref
from starquiver import linalg_exact as ex
from starquiver.dsolve import _NESTED_TOL, DSSolution, RefinementError, flags_from_solution, rank_profile
from starquiver.floatarith import FLOAT


def nested_columns(float_flags, r):
    """One real column basis per point whose prefixes span the flag steps:
    the library's former private Gram-Schmidt over the float flags.

    The deepest step comes first; shallower steps are extended by the
    residuals of their own columns against what is already chosen, so the
    prefix of width gamma_j spans the j-th step up to float error.
    """
    if not float_flags:
        return np.zeros((r, 0))
    cols = []
    for b in reversed(float_flags):  # deepest first
        b = np.asarray(b).real
        for k in range(b.shape[1]):
            v = b[:, k].copy()
            for c in cols:
                v = v - c * float(np.dot(c, v))
            nv = float(np.linalg.norm(v))
            if nv > _NESTED_TOL:
                cols.append(v / nv)
    widths = [np.asarray(b).shape[1] for b in float_flags]
    if len(cols) != widths[0]:
        raise RefinementError("flag steps are not numerically nested")
    return np.stack(cols, axis=1)


def snap(x, denominator):
    return Fraction(round(float(x) * denominator), denominator)


def preservation_basis(flag_bases, r):
    """Exact basis of the space of matrices pushing the snapped flag
    strictly deeper, as flattened column vectors."""
    chain = [ex.meye(r)] + list(flag_bases) + [None]  # None = zero space
    constraints = []
    for j in range(len(chain) - 1):
        src, dst = chain[j], chain[j + 1]
        if dst is None:
            # A * src = 0
            for col in range(ex.shape(src)[1]):
                for row in range(r):
                    eq = [Fraction(0)] * (r * r)
                    for t in range(r):
                        eq[row * r + t] = src[t][col]
                    constraints.append(eq)
            continue
        # rows spanning the left kernel of dst kill A * src
        left = nullspace(ex.mtrans(dst))
        for lv in left:
            for col in range(ex.shape(src)[1]):
                eq = [Fraction(0)] * (r * r)
                for row in range(r):
                    for t in range(r):
                        eq[row * r + t] += lv[row] * src[t][col]
                constraints.append(eq)
    if not constraints:
        return [[Fraction(int(k == t)) for k in range(r * r)] for t in range(r * r)]
    return nullspace(constraints)


def solve_anchored(a, anchor):
    """A point of ker(a) close to ``anchor``: free variables keep their
    anchor values, pivot variables are solved for exactly."""
    n = ex.shape(a)[1]
    r, pivots = rref(a)
    free = [j for j in range(n) if j not in pivots]
    x = [Fraction(0)] * n
    for j in free:
        x[j] = Fraction(anchor[j])
    for i, p in enumerate(pivots):
        x[p] = -sum(r[i][j] * x[j] for j in free)
    return x


def exact_refine(solution, instance, denominator=2**16, max_attempts=4):
    """Exact rational solution near a certified floating one, by snapped
    flags, Fraction preservation spaces and one anchored Fraction solve."""
    if solution.mode == "exact":
        return solution
    r = instance.rank
    sigma = instance.parabolic_type()
    h = flags_from_solution(solution, sigma)
    nested = [nested_columns(h.flags[i], r) for i in range(sigma.n_points)]
    for attempt in range(max_attempts):
        den = denominator * (2 ** (4 * attempt))
        snapped_flags = []
        okay = True
        for i in range(sigma.n_points):
            cols = nested[i]
            snapped_cols = [[snap(cols[row, k], den) for k in range(cols.shape[1])] for row in range(r)]
            # prefixes of one snapped nested basis stay nested exactly
            fl = []
            for gj in sigma.gamma(i):
                sb = [row[:gj] for row in snapped_cols]
                if ex.rank(sb) != gj:
                    okay = False
                fl.append(sb)
            snapped_flags.append(fl)
        if not okay:
            continue
        bases = [preservation_basis(snapped_flags[i], r) for i in range(instance.n)]
        dims = [len(b) for b in bases]
        total_dim = sum(dims)
        if total_dim == 0:
            mats = [ex.mzeros(r, r) for _ in range(instance.n)]
        else:
            # central constraint sum_i B_i c_i = 0 over all coefficient vectors
            central = [[Fraction(0)] * total_dim for _ in range(r * r)]
            offset = 0
            for i, basis in enumerate(bases):
                for k, vec in enumerate(basis):
                    for row_idx in range(r * r):
                        central[row_idx][offset + k] = vec[row_idx]
                offset += dims[i]
            # anchor: coordinates of the floating matrices in each basis
            anchor = []
            for i, basis in enumerate(bases):
                if not basis:
                    continue
                bf = np.array([[float(x) for x in vec] for vec in basis]).T
                target = np.asarray(solution.matrices[i]).real.reshape(-1)
                coeff, *_ = np.linalg.lstsq(bf, target, rcond=None)
                anchor.extend(snap(c, den) for c in coeff)
            sol_vec = solve_anchored(central, anchor)
            mats = []
            offset = 0
            for i, basis in enumerate(bases):
                flat = [Fraction(0)] * (r * r)
                for k, vec in enumerate(basis):
                    c = sol_vec[offset + k]
                    if c != 0:
                        for t in range(r * r):
                            flat[t] += c * vec[t]
                offset += dims[i]
                mats.append([flat[t * r : (t + 1) * r] for t in range(r)])
        if rank_profile(mats, "exact") != [c.rank_sequence for c in instance.classes]:
            continue
        drift = max(
            float(np.linalg.norm(FLOAT.from_exact(m) - np.asarray(solution.matrices[i]).real))
            for i, m in enumerate(mats)
        )
        if drift > 1e-2:
            continue
        conjugators = [
            ex.nilpotent_jordan_basis(m)[0] if c.rank_sequence else ex.meye(r)
            for m, c in zip(mats, instance.classes)
        ]
        return DSSolution(
            matrices=mats,
            conjugators=conjugators,
            residual=0.0,
            mode="exact",
            restart_index=solution.restart_index,
            iterations=solution.iterations,
        )
    raise RefinementError("rational refinement failed: snapped flags kept degenerating")
