"""Numerical construction of nilpotent residue tuples with zero sum.

The solver works inside the prescribed conjugacy classes by construction:
each matrix is parametrized as ``A_i = P_i N_i P_i^{-1}`` over invertible
conjugators, with N_i the Jordan form of class i, and drives the sum ``S``
to zero by Gauss-Newton.  Perturbing ``P_i`` to ``(I + X_i) P_i`` moves
``A_i`` by the commutator ``[X_i, A_i]`` to first order, so each step takes
the minimum-norm least-squares solution of ``S + sum_i [X_i, A_i] = 0``
(see ``orbit_jacobian``) and halves it until the residual drops.  Restarts
draw fresh random orthogonal conjugators from per-restart deterministic
streams.  The first converged restart (by index) at a smooth point of the
zero-sum fibre wins, so the solver prefers tuples whose commutant is the
scalars; reducible limits are only returned when no restart does better.

``exact_refine`` turns a certified floating solution into a nearby exact
rational one: each point's image flag, one basis filled deepest step first,
is snapped to an integer basis, in which strong preservation is a pattern
of free entries, and the zero-sum condition couples the points in one
fraction-free elimination over the integers, of its leading square block
when that is nonsingular, anchored at the floating solution.  The result
sums to zero exactly and is exactly nilpotent; the rank profile is then
re-verified exactly.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np

from . import linalg_exact as ex
from .arith import ops
from .combinat import (
    FeasibilityReport,
    MarkedLine,
    NilpotentClass,
    ParabolicType,
    ds_feasible,
    type_from_classes,
)
from .floatarith import FLOAT, kron
from .higgs import HiggsTuple, irreducible

# a Gauss-Newton step is halved while it would push a conjugator past this
# condition number, or while it does not lower the residual; steps shorter
# than _MIN_STEP end the restart
_CONDITION_CAP = 1e8
_MIN_STEP = 2.0**-20
# converged tuples count as irreducible only at or above this singular
# value ratio of the orbit Jacobian (see is_smooth_point)
_SMOOTH_RATIO = 1e-3
# a float solution certifies its sum, and a conjugator its matrix, when
# ||sum_i A_i||, and ||A - P N P^-1||, is at most this: roundoff in P N P^-1 at
# the solver's condition cap is about 1e-16 * 1e8, a hundred times smaller,
# and a changed entry of A or P moves either norm by the size of the change
CONJUGATOR_TOL = 1e-6


def rank_tolerance(residual):
    """Singular value cut for the float rank profile that ``verify``
    checks: a solution whose sum is only near zero lies in its classes only
    up to that residual, so the cut sits 1e3 above it, and never below
    1e-7."""
    return max(1e-7, 1e3 * residual)


def rank_profile(matrices, mode="float", tol=None):
    """Per matrix: ranks of its successive powers, stopping at zero.

    Returns tuples shaped like class rank sequences (strictly positive
    prefix); a nonnilpotent matrix yields a full-length tuple.  In float
    mode the threshold for the j-th power is ``tol`` (relative, default
    max-dimension times machine epsilon) times the j-th power of the base
    matrix's largest singular value: a near-nilpotent power must be
    compared against the base scale, not against its own vanishing norm.
    """
    o = ops(mode)
    out = []
    for a in matrices:
        a = o.coerce(a)
        scale = o.singular_scale(a)
        ranks = []
        for j, power in enumerate(o.powers(a, o.shape(a)[0]), start=1):
            rk = o.rank(power, tol, scale**j)
            if rk == 0:
                break
            ranks.append(rk)
        out.append(tuple(ranks))
    return out


@dataclass(frozen=True)
class DSInstance:
    rank: int
    classes: tuple
    points: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        for c in self.classes:
            if c.rank != self.rank:
                raise ValueError("all classes must share the instance rank")
        if not self.classes:
            raise ValueError("need at least one class")
        pts = MarkedLine(range(len(self.classes)) if self.points is None else self.points).points
        if len(pts) != len(self.classes):
            raise ValueError("need one marked point per class")
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return len(self.classes)

    def parabolic_type(self) -> ParabolicType:
        return type_from_classes(list(self.classes), points=list(self.points))

    def feasibility(self) -> FeasibilityReport:
        return ds_feasible(self.parabolic_type())


@dataclass
class SolverConfig:
    tolerance: float = 1e-10
    max_iters: int = 5000
    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        # a budget that cannot run is bad input, not an exhausted budget
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be at least 0, got {self.max_iters}")
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be a positive finite number, got {self.tolerance}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass
class DSSolution:
    matrices: list
    conjugators: list
    residual: float
    mode: str = "float"
    restart_index: int = -1
    iterations: int = 0

    def __post_init__(self):
        self.ops = ops(self.mode)  # an unknown mode is refused here, as StarRep and HiggsTuple refuse it

    def profile(self, tol=None):
        return rank_profile(self.matrices, self.mode, tol)


@dataclass
class SolveOutcome:
    success: bool
    solution: DSSolution = None
    feasibility: FeasibilityReport = None
    best_residuals: list = field(default_factory=list)
    message: str = ""


def _jordan(cls: NilpotentClass):
    return ex.jordan_nilpotent(cls.to_partition(), cls.rank)


def _jordan_float(cls: NilpotentClass):
    return FLOAT.from_exact(_jordan(cls))


def _random_orthogonal(r, rng):
    q, rr = np.linalg.qr(rng.standard_normal((r, r)))
    return q * np.sign(np.diag(rr))


def orbit_jacobian(mats):
    """Jacobian of ``X -> sum_i [X_i, A_i]`` in row-major vec coordinates.

    Block i is ``I (x) A_i^T - A_i (x) I``.  The image is orthogonal to the
    transposed commutant of the tuple, so the rank is ``r^2`` minus the
    dimension of the commutant.
    """
    a = np.asarray(mats)
    eye = np.eye(a.shape[1])
    blocks = kron(eye, a.transpose(0, 2, 1)) - kron(a, eye)  # all n blocks at once
    return blocks.transpose(1, 0, 2).reshape(blocks.shape[1], -1)  # side by side


def is_smooth_point(mats):
    """Whether the tuple's commutant is the scalars, i.e. ``J`` has the
    largest possible rank ``r^2 - 1``, which makes the zero-sum fibre smooth
    there: ``sigma_{r^2-1}(J) >= _SMOOTH_RATIO * sigma_1(J)``.

    Irreducible tuples pass; reducible ones, and ones close to a reducible
    tuple, have a commutant (numerically) larger than the scalars.
    """
    sv = np.linalg.svd(orbit_jacobian(mats), compute_uv=False)
    return sv[mats[0].size - 2] >= _SMOOTH_RATIO * sv[0]


def _gauss_newton_run(jordans, active, config, rng):
    """One restart of damped Gauss-Newton from the stacked Jordan forms of
    the classes (``active`` marks the nonzero ones); returns (residual,
    matrices, conjugators, iterations) as stacked arrays over all points."""
    n, r = jordans.shape[:2]
    ps = np.array([_random_orthogonal(r, rng) if a else np.eye(r) for a in active])
    mats = ps @ jordans @ np.linalg.inv(ps)
    s = mats.sum(axis=0)
    norm = np.linalg.norm(s)
    iterations = 0
    while norm >= config.tolerance and iterations < config.max_iters:
        # minimum-norm solution of the linearization S + sum_i [X_i, A_i] = 0
        x = np.linalg.lstsq(orbit_jacobian(mats), -s.reshape(-1), rcond=None)[0]
        x = x.reshape(n, r, r)
        x[~active] = 0.0  # zero classes: zero columns, keep P_i = I exactly
        step = 1.0
        while step >= _MIN_STEP:
            trial = ps + step * (x @ ps)
            if np.linalg.cond(trial).max() <= _CONDITION_CAP:
                trial_mats = trial @ jordans @ np.linalg.inv(trial)
                trial_s = trial_mats.sum(axis=0)
                if np.linalg.norm(trial_s) < norm:
                    break
            step /= 2
        else:
            break  # no damped step lowers the residual: a nonzero critical point
        ps, mats, s = trial, trial_mats, trial_s
        norm = np.linalg.norm(s)
        iterations += 1
    return float(norm), mats, ps, iterations


def solve(instance: DSInstance, config: SolverConfig = None) -> SolveOutcome:
    """Search for matrices in the prescribed classes with zero sum.

    Infeasible instances are still attempted: the feasibility inequality is
    necessary for an irreducible tuple (``ds_feasible``), but a reducible
    one can exist (``ds_rank5_infeasible.json`` converges to one).  The
    report always carries the feasibility flags.  The first restart (by
    index) that converges at a smooth point of the fibre wins; when no
    converged restart is smooth, the first converged one is returned.
    """
    config = config or SolverConfig()
    feas = instance.feasibility()
    active = np.array([bool(c.rank_sequence) for c in instance.classes])
    jordans = np.array([_jordan_float(c) for c in instance.classes])
    best_residuals = []
    fallback = None
    for restart in range(config.restarts):
        rng = np.random.default_rng([config.seed, restart])
        resid, mats, ps, iters = _gauss_newton_run(jordans, active, config, rng)
        best_residuals.append(resid)
        if resid < config.tolerance:
            sol = DSSolution(
                matrices=list(mats),
                conjugators=list(ps),
                residual=resid,
                restart_index=restart,
                iterations=iters,
            )
            if is_smooth_point(mats):
                return SolveOutcome(True, sol, feas, best_residuals)
            fallback = fallback or sol
    if fallback is not None:
        return SolveOutcome(True, fallback, feas, best_residuals)
    return SolveOutcome(
        False,
        None,
        feas,
        best_residuals,
        message=(
            "budget exhausted"
            + ("" if feas.feasible else " (instance fails the feasibility inequality)")
        ),
    )


# ---------------------------------------------------------------------------
# verification


@dataclass
class VerifyReport:
    """``verify``'s certificate of one tuple; ``passed`` needs the zero sum, profiles, irreducibility and conjugators."""

    residual: float
    sum_ok: bool
    profile_ok: bool
    profiles: list
    expected: list
    irreducible: bool
    words: list
    conjugator_error: float
    conjugators_ok: bool

    def passed(self):
        return self.sum_ok and self.profile_ok and self.irreducible and self.conjugators_ok


def verify(solution: DSSolution, instance: DSInstance) -> VerifyReport:
    """Certification report of the tuple as given: sum residual, zero sum,
    exact-class rank profile, irreducibility words, conjugator consistency.

    The report passes only when the sum vanishes and every conjugator is
    invertible and conjugates its class's Jordan form to its matrix:
    exactly, as ``A_i P_i = P_i N_i`` in integers, for an exact solution,
    and up to ``CONJUGATOR_TOL`` in ``||sum_i A_i||`` and
    ``||A_i - P_i N_i P_i^-1||`` for a float one.  ``conjugator_error`` is
    the largest norm of those differences over the invertible conjugators.

    Raises ``ValueError`` naming the first point without one rank x rank
    matrix and one rank x rank conjugator for its class.
    """
    o = solution.ops
    r, mats, conj = instance.rank, solution.matrices, solution.conjugators
    for i in range(max(instance.n, len(mats), len(conj))):
        pair = [x[i] for x in (mats, conj) if i < len(x)]
        if i >= instance.n or len(pair) < 2 or any(o.shape(m) != (r, r) for m in pair):
            raise ValueError(
                f"point {i}: the solution needs one {r}x{r} matrix and one {r}x{r} "
                f"conjugator at each of the instance's {instance.n} points"
            )
    # summed from the first matrix, not from o.zeros: a complex zero would
    # make the sum of a real float solution complex, whose norm can round
    # differently
    total = reduce(o.add, solution.matrices)
    residual = o.norm(total)
    profiles = solution.profile(rank_tolerance(residual))
    expected = [c.rank_sequence for c in instance.classes]
    profile_ok = all(p == e for p, e in zip(profiles, expected))
    cert = irreducible(solution.matrices, solution.mode)
    conj_err, conj_ok = 0.0, True
    for a, p, c in zip(solution.matrices, solution.conjugators, instance.classes):
        if o.rank(p) < r:
            conj_ok = False
            continue
        gap = o.conjugation_gap(a, p, o.from_exact(_jordan(c)))
        conj_err = max(conj_err, o.norm(gap))
        conj_ok = conj_ok and o.is_zero(gap, CONJUGATOR_TOL)
    return VerifyReport(
        residual=residual,
        sum_ok=o.is_zero(total, CONJUGATOR_TOL),
        profile_ok=profile_ok,
        profiles=profiles,
        expected=expected,
        irreducible=cert.irreducible,
        words=cert.words,
        conjugator_error=conj_err,
        conjugators_ok=conj_ok,
    )


# ---------------------------------------------------------------------------
# flags from a solution


_COUNT_MESSAGE = "need one residue matrix and one flag list per marked point"
# a unit flag vector whose Gram-Schmidt residual is at most this lies in the span so far
_NESTED_TOL = 1e-6


def _flag_rows(o, a, gammas, i):
    """One basis of the image flag of ``a`` (point i) whose first gamma_j
    vectors span step j, Im a^j: the bases of Im a^(s-1), ..., Im a fill one
    span tracker, deepest first.  A step of another dimension raises ValueError."""
    powers = list(o.powers(o.coerce(a), len(gammas)))
    tracker = o.span_tracker(_NESTED_TOL)
    for j in range(len(gammas), 0, -1):
        for v in o.columns(o.basis(powers[j - 1], gammas[j - 1])):
            tracker.add(v)
        if len(tracker) != gammas[j - 1]:
            raise ValueError(f"point {i}: flag step {j} has dimension {len(tracker)}, the type needs {gammas[j - 1]}")
    return tracker.rows


def flags_from_solution(solution: DSSolution, sigma: ParabolicType) -> HiggsTuple:
    """Image flags of the powers: the step of dimension gamma_j at point i
    is the column space of the j-th power of A_i.

    The steps are the prefixes of one basis (``_flag_rows``), so they nest.
    The widths come from the type: a float step adds the leading gamma_j
    left singular vectors of A_i^j, an exact one the pivot columns of the
    integer power, and a step of another dimension raises ``ValueError``.
    A float solution off its classes therefore gets flags it does not
    preserve, and the tuple's validation rejects it with ``BridgeError``,
    at the tuple's default ``starrep.BRIDGE_TOL``: neither the stated
    ``residual`` nor the sum under test widens it.  So is a solution with
    another number of matrices than the type has points.
    """
    o = solution.ops
    gammas = [sigma.gamma(i) for i in range(sigma.n_points)]
    rows = [_flag_rows(o, a, g, i) for i, (a, g) in enumerate(zip(solution.matrices, gammas))]
    flags = [[o.from_columns(basis[:g]) for g in gs] for basis, gs in zip(rows, gammas)]
    return HiggsTuple(sigma=sigma, matrices=list(solution.matrices), flags=flags, mode=solution.mode)


# ---------------------------------------------------------------------------
# exact rational refinement


# the first snap scales the unit flag columns by 2^16: small exact entries,
# and a rounding error (2^-17 per entry) far inside the drift bound
_SNAP_DENOMINATOR = 2**16
# a rejected snap is retried 2^4 finer; the fourth, 2^28, is about as fine
# as the floating flags are accurate, so further tries would not help
_SNAP_ATTEMPTS = 4
# per point, in Frobenius norm: the exact tuple must round the certified
# floating one, not replace it by a different solution
_MAX_DRIFT = 1e-2


class RefinementError(RuntimeError):
    pass


def _flag_basis(rows, den):
    """Integer basis whose leading columns ``round(den * rows)`` span the
    snapped flag steps prefix by prefix, completed one at a time by the
    standard vector farthest from the span so far."""
    c = np.rint(den * np.array(rows).real.T)
    r, g = c.shape
    u = np.linalg.qr(c)[0]
    picks = []
    for _ in range(r - g):
        k = int(np.argmax(1.0 - (u * u).sum(axis=1)))
        v = -(u @ u[k])
        v[k] += 1.0
        u = np.column_stack([u, v / np.linalg.norm(v)])
        picks.append(k)
    return [[int(x) for x in c[p]] + [int(p == k) for k in picks] for p in range(r)]


def _free_entries(ranks, r):
    """Entries (row, col) that strong preservation leaves free in the flag
    basis: column k of step j but not of step j+1 lies in rows < gamma_{j+1}."""
    return [(a, b) for b in range(r) for a in range(max(g for g in ranks + (0,) if g <= b))]


def _solve_anchored(columns, anchor):
    """The point x of the kernel of the integer matrix M with these columns
    whose free unknowns keep their (Fraction) anchor values and whose pivot
    unknowns are solved for exactly.

    With the anchors cleared to integers y over one denominator s and
    h = M·y, x is the anchor plus a correction δ on the pivots with
    M·(s δ) = -h.  M has m rows, so its rank is at most m: when its first m
    columns are independent they are the pivots, and one ``echelon`` of
    [first m columns | h] solves the system.  Only a singular block is
    eliminated again with all columns.  ``back_substitute`` of the
    eliminated h column gives d s δ at the pivots, d the last pivot.
    """
    if not columns:
        return []
    m = len(columns[0])
    (y,), scale = ex.clear([anchor])
    h = [sum(c[i] * v for c, v in zip(columns, y)) for i in range(m)]
    red, piv, d = ex.echelon(ex.mtrans(columns[:m] + [h]))
    if piv != list(range(m)) and len(columns) > m:
        red, piv, d = ex.echelon(ex.mtrans(columns + [h]))
    x = list(anchor)
    for p, (v,) in zip(piv, ex.back_substitute(red, piv, d, [[row[-1]] for row in red[: len(piv)]])):
        x[p] += Fraction(v, d * scale)
    return x


def _refine_at(solution, instance, nested, den):
    """The exact tuple for one snap at denominator ``den``, or None when the
    snap is rejected (singular flag basis, wrong profile, or drift).  Each
    flag basis Q is inverted in integers, as d·Q^-1 by ``int_inverse``.  The
    zero sum is r^2 - 1 integer equations in the free entries: every column
    is trace-free, so the (r-1, r-1) equation follows from the others."""
    r = instance.rank
    frames, unknowns, columns, anchor = [], [], [], []
    for i, (rows, c) in enumerate(zip(nested, instance.classes)):
        q = _flag_basis(np.reshape(rows, (-1, r)), den)  # a zero class has no rows: Q = I
        inverse = ex.int_inverse(q)
        if inverse is None:
            return None  # the snapped flag steps lost rank
        adj, d = inverse  # d Q^-1
        frames.append((q, adj, d))
        qf = np.array(q, dtype=float)
        nf = np.linalg.solve(qf, np.asarray(solution.matrices[i]).real @ qf)
        g = len(rows)  # gamma_1
        # N = Q^-1 A Q = d K: the zero sum is sum_i Q_i K_i adj_i = 0 over Z.
        # Entry (a, b) of K has a < b: its column q_a adj_b has trace
        # (adj Q)[b][a] = 0, so its (r-1, r-1) entry is left out.
        # Free entries of N sit in flag rows (scale den); each is snapped at
        # the same precision relative to its column's scale: to 1/den in a
        # flag column, to 1/den^2 in a completion column (scale 1).
        for a, b in _free_entries(c.rank_sequence, r):
            unknowns.append((i, a, b))
            columns.append([q[p][a] * adj[b][t] for p in range(r) for t in range(r)][:-1])
            e = den if b < g else den * den
            anchor.append(Fraction(round(nf[a, b] * e), e * d))
    ks = [ex.mzeros(r, r) for _ in frames]
    for (i, a, b), v in zip(unknowns, _solve_anchored(columns, anchor)):
        ks[i][a][b] = v
    mats, conjugators = [], []
    for k, (q, adj, d), c, af in zip(ks, frames, instance.classes, solution.matrices):
        kint, den_k = ex.clear(k)
        a = ex.divide(ex.imul(ex.imul(q, kint), adj), den_k)
        if np.linalg.norm(FLOAT.from_exact(a) - np.asarray(af).real) > _MAX_DRIFT:
            return None
        p, ranks = ex.nilpotent_jordan_basis([[v * d for v in row] for row in k])  # K is strictly upper triangular
        if ranks != c.rank_sequence:
            return None
        mats.append(a)
        conjugators.append(ex.mmul(q, p))
    return DSSolution(
        matrices=mats,
        conjugators=conjugators,
        residual=0.0,
        mode="exact",
        restart_index=solution.restart_index,
        iterations=solution.iterations,
    )


def exact_refine(solution: DSSolution, instance: DSInstance) -> DSSolution:
    """Exact rational solution near a certified floating one.

    Each point is parametrized in its own snapped flag basis: the basis of
    its float image flag (``_flag_rows``, with no tuple built), scaled by the
    snapping denominator and rounded, is completed to an integer basis
    ``Q_i``, in which strong preservation is a pattern of free entries of
    ``N_i = Q_i^-1 A_i Q_i``.  The zero sum is then r^2 - 1 integer
    equations in those entries (the last diagonal one follows from the
    trace), solved without fractions on the leading square block of
    unknowns, and on all of them only when that block is singular; free
    entries keep the snapped floating values and pivot entries are solved
    exactly.  Exact nilpotency and strong preservation hold by
    construction; the rank profile and closeness are re-verified, with a
    finer snap on failure.
    Conjugators are ``Q_i P_i`` with ``P_i`` a Jordan basis of ``N_i``.
    """
    if len(solution.matrices) != instance.n:
        raise ValueError(_COUNT_MESSAGE)
    if solution.mode == "exact":
        return solution
    sigma = instance.parabolic_type()
    try:
        nested = [_flag_rows(FLOAT, a, sigma.gamma(i), i) for i, a in enumerate(solution.matrices)]
    except ValueError as e:
        raise RefinementError(f"flag steps are not numerically nested: {e}") from None
    for attempt in range(_SNAP_ATTEMPTS):
        exact = _refine_at(solution, instance, nested, _SNAP_DENOMINATOR * 16**attempt)
        if exact is not None:
            return exact
    raise RefinementError("rational refinement failed: snapped flags kept degenerating")


# ---------------------------------------------------------------------------
# instance generation (used by tests and the verification suite)


def random_partition(r, rng):
    parts = []
    left = r
    while left > 0:
        p = int(rng.integers(1, left + 1))
        parts.append(p)
        left -= p
    return tuple(sorted(parts, reverse=True))


def random_feasible_instance(rng, max_rank=5, max_points=6) -> DSInstance:
    """Random instance with 2r <= sum of first-power ranks, nonzero
    classes, four or more points."""
    while True:
        r = int(rng.integers(2, max_rank + 1))
        n = int(rng.integers(4, max_points + 1))
        classes = []
        for _ in range(n):
            while True:
                part = random_partition(r, rng)
                if len(part) < r:  # exclude the zero class
                    break
            classes.append(NilpotentClass.from_partition(part))
        inst = DSInstance(rank=r, classes=tuple(classes))
        if inst.feasibility().feasible:
            return inst
