"""Representations of the doubled star quiver and their stability data.

Orientation convention, fixed once: ``f`` maps point outward (center
toward arm tips), ``g`` maps point inward.  Levels are 1-based; level 0
is the central vertex of dimension ``rank``.  With chains
``(g_1, ..., g_s)`` on an arm, ``f_i`` has shape ``g_i x g_{i-1}`` and
``g_i`` has shape ``g_{i-1} x g_i`` (``g_0 = rank``).

The moment map components are written at the vertex where both
compositions are endomorphisms: the central component is the sum of
``g_1 f_1`` over arms, the component at arm vertex i is
``f_i g_i - g_{i+1} f_{i+1}`` (just ``f_s g_s`` at the tip).  Vanishing of
all components encodes residue-sum zero plus strong flag preservation.

Entries are in one of the two formats of ``arith`` (``mode="float"`` or
``"exact"``), never mixed inside one value; every matrix operation goes
through the value's ``arith`` backend.
"""

import math
from dataclasses import dataclass

import numpy as np

from .arith import FLOAT, ops
from .combinat import ParabolicType, flag_dimension_vector


@dataclass(frozen=True)
class StarQuiver:
    rank: int
    arms: tuple  # tuple of chains; each chain a tuple of positive ints

    def __post_init__(self):
        object.__setattr__(self, "arms", tuple(tuple(a) for a in self.arms))
        if self.rank < 1:
            raise ValueError("central rank must be positive")
        for chain in self.arms:
            if any(c < 1 for c in chain):
                raise ValueError("arm dimensions must be positive")
            if any(a <= b for a, b in zip(chain, chain[1:])):
                raise ValueError("arm chains must be strictly decreasing")
            if chain and chain[0] > self.rank:
                raise ValueError("arm dimensions cannot exceed the central rank")

    @property
    def n_arms(self):
        return len(self.arms)

    def dims(self, j):
        """(rank, g_1, ..., g_s) for arm j."""
        return (self.rank,) + self.arms[j]

    def phase_dim(self):
        """Complex dimension of the doubled representation space."""
        return 2 * sum(
            a * b for j in range(self.n_arms) for a, b in zip(self.dims(j), self.dims(j)[1:])
        )


def build_star_quiver(sigma: ParabolicType) -> StarQuiver:
    """Arm j carries the flag dimension vector of the j-th marked point."""
    return StarQuiver(
        rank=sigma.rank,
        arms=tuple(flag_dimension_vector(sigma, x) for x in sigma.line.points),
    )


@dataclass(frozen=True)
class StabilityCharacter:
    """The character theta: exponent ``central_exponent`` (= -N) at the
    center and a positive exponent d at each arm vertex, stored pre-scaled
    so that every exponent is an integer.

    Sign convention: a subrepresentation W with ``pairing(W) > 0``
    destabilizes, just as a subobject of slope above the full slope does,
    and the full dimension vector pairs to 0.  For a residue tuple, W is a
    subspace of the fiber with dimension vector (dim W; dim W meet F_ij),
    and its pairing is c K dim W (slope(W) - full slope), c > 0 being the
    factor ``build_character`` scaled the weight gaps by.  A kernel vector
    of a rank-deficient inward map at arm j, level i spans a
    subrepresentation of the inward maps with a single 1 at that vertex,
    so it pairs to the positive arm exponent there: the defect that
    ``arm_semistable`` detects (King, Quart. J. Math. 45, 1994).
    """

    central_exponent: int  # equals -N
    arm_exponents: tuple  # per arm, tuple of positive ints d_i

    def __post_init__(self):
        object.__setattr__(
            self, "arm_exponents", tuple(tuple(d) for d in self.arm_exponents)
        )

    @property
    def N(self):
        return -self.central_exponent

    def pairing(self, center, arms):
        """theta paired with the dimension vector (center; arms), where
        ``arms[j][i]`` is the dimension at level i+1 of arm j; exact."""
        return self.central_exponent * center + sum(
            d * dim for ds, dims in zip(self.arm_exponents, arms, strict=True)
            for d, dim in zip(ds, dims, strict=True)
        )


def build_character(sigma: ParabolicType) -> StabilityCharacter:
    """Arm exponents are consecutive weight gaps; the central exponent is
    minus the weighted dimension sum over rank, scaled by the least
    positive integer that clears the denominator."""
    quiver = build_star_quiver(sigma)
    d = []
    for i in range(sigma.n_points):
        wts = sigma.weights[i]
        d.append(tuple(wts[k + 1] - wts[k] for k in range(len(wts) - 1)))
    total = sum(
        dv * dim for ds, chain in zip(d, quiver.arms) for dv, dim in zip(ds, chain)
    )
    r = sigma.rank
    if total == 0:
        return StabilityCharacter(central_exponent=0, arm_exponents=tuple(d))
    mult = r // math.gcd(int(total), r)
    n_big = int(total) * mult // r
    d_scaled = tuple(tuple(int(dv) * mult for dv in ds) for ds in d)
    return StabilityCharacter(central_exponent=-n_big, arm_exponents=d_scaled)


# ---------------------------------------------------------------------------
# representations


class StarRep:
    """Immutable-by-convention container for all f and g matrices.

    ``f[j][i]`` and ``g[j][i]`` hold the outward/inward maps at level i+1
    of arm j.  Entries are complex floats or Fractions; the two never mix
    inside one value.
    """

    def __init__(self, quiver: StarQuiver, f, g, mode="float"):
        self.ops = ops(mode)
        self.quiver = quiver
        self.mode = mode
        if len(f) != quiver.n_arms or len(g) != quiver.n_arms:
            raise ValueError("need one f-list and one g-list per arm")
        self.f = []
        self.g = []
        for j in range(quiver.n_arms):
            dims = quiver.dims(j)
            if len(f[j]) != len(dims) - 1 or len(g[j]) != len(dims) - 1:
                raise ValueError(f"arm {j}: wrong number of levels")
            fj, gj = [], []
            for i in range(len(dims) - 1):
                fm = self.ops.coerce(f[j][i])
                gm = self.ops.coerce(g[j][i])
                if self.ops.shape(fm) != (dims[i + 1], dims[i]):
                    raise ValueError(f"arm {j} level {i + 1}: f has wrong shape")
                if self.ops.shape(gm) != (dims[i], dims[i + 1]):
                    raise ValueError(f"arm {j} level {i + 1}: g has wrong shape")
                fj.append(fm)
                gj.append(gm)
            self.f.append(fj)
            self.g.append(gj)

    def residue(self, j):
        """g_1 f_1 on arm j; the zero endomorphism for an empty arm."""
        if not self.f[j]:
            return self.ops.zeros(self.quiver.rank, self.quiver.rank)
        return self.ops.mul(self.g[j][0], self.f[j][0])

    def _map(self, fn, mode):
        f = [[fn(m) for m in arm] for arm in self.f]
        g = [[fn(m) for m in arm] for arm in self.g]
        return StarRep(self.quiver, f, g, mode)

    def copy(self):
        return self._map(self.ops.copy, self.mode)

    def to_float(self):
        return self._map(self.ops.to_float, "float")


def zero_rep(quiver: StarQuiver) -> StarRep:
    """The zero representation (float mode)."""
    f, g = [], []
    for j in range(quiver.n_arms):
        dims = quiver.dims(j)
        f.append([FLOAT.zeros(dims[i + 1], dims[i]) for i in range(len(dims) - 1)])
        g.append([FLOAT.zeros(dims[i], dims[i + 1]) for i in range(len(dims) - 1)])
    return StarRep(quiver, f, g)


def random_rep(quiver: StarQuiver, rng, scale=1.0) -> StarRep:
    """Independent complex Gaussian entries on every slot (float mode)."""

    def draw(m, n):
        return scale * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))

    f, g = [], []
    for j in range(quiver.n_arms):
        dims = quiver.dims(j)
        f.append([draw(dims[i + 1], dims[i]) for i in range(len(dims) - 1)])
        g.append([draw(dims[i], dims[i + 1]) for i in range(len(dims) - 1)])
    return StarRep(quiver, f, g, "float")


# ---------------------------------------------------------------------------
# moment map


@dataclass
class MomentValue:
    center: object
    arms: list  # arms[j][i] is the component at arm j, vertex i+1

    def components(self):
        yield ("center",), self.center
        for j, arm in enumerate(self.arms):
            for i, m in enumerate(arm):
                yield (j, i + 1), m


def moment_map(rep: StarRep) -> MomentValue:
    q, o = rep.quiver, rep.ops
    center = o.zeros(q.rank, q.rank)
    for j in range(q.n_arms):
        if rep.f[j]:
            center = o.add(center, rep.residue(j))
    arms = []
    for j in range(q.n_arms):
        comps = []
        s = len(rep.f[j])
        for i in range(s):
            fg = o.mul(rep.f[j][i], rep.g[j][i])
            if i + 1 < s:
                gf = o.mul(rep.g[j][i + 1], rep.f[j][i + 1])
                comps.append(o.sub(fg, gf))
            else:
                comps.append(fg)
        arms.append(comps)
    return MomentValue(center=center, arms=arms)


def moment_residual(rep: StarRep) -> float:
    """Largest Frobenius norm over all moment components."""
    mv = moment_map(rep)
    return max(rep.ops.norm(m) for _, m in mv.components())


# default tolerance of the bridge between quiver data and residue tuples:
# the Frobenius norm up to which a float moment component, residue sum or
# flag defect counts as zero (exact values ignore it)
BRIDGE_TOL = 1e-8


def moment_is_zero(rep: StarRep, tol=BRIDGE_TOL) -> bool:
    """Every component is zero (float: Frobenius norm at most ``tol``)."""
    return all(rep.ops.is_zero(m, tol) for _, m in moment_map(rep).components())


# ---------------------------------------------------------------------------
# stability on arms


def arm_semistable(rep: StarRep, j: int) -> bool:
    """Every inward map on arm j has full column rank (at the default
    ``rank`` cut), so each level injects into the center."""
    dims = rep.quiver.dims(j)
    for i, gm in enumerate(rep.g[j]):
        if rep.ops.rank(gm) < dims[i + 1]:
            return False
    return True


# ---------------------------------------------------------------------------
# group action and trace invariants


@dataclass
class GroupElement:
    center: object
    arms: list  # arms[j][i]: block at arm j, vertex i+1


def random_group_element(quiver: StarQuiver, rng) -> GroupElement:
    def draw(n):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return a + 2.0 * n * np.eye(n)  # comfortably invertible

    return GroupElement(
        center=draw(quiver.rank),
        arms=[[draw(d) for d in quiver.arms[j]] for j in range(quiver.n_arms)],
    )


def group_act(rep: StarRep, h: GroupElement) -> StarRep:
    """Base change at every vertex: each map is conjugated by the blocks
    at its head and tail."""
    o = rep.ops
    f, g = [], []
    for j in range(rep.quiver.n_arms):
        fj, gj = [], []
        blocks = [h.center] + list(h.arms[j])
        inv_blocks = [o.inv(b) for b in blocks]
        for i in range(len(rep.f[j])):
            fj.append(o.mul(o.mul(blocks[i + 1], rep.f[j][i]), inv_blocks[i]))
            gj.append(o.mul(o.mul(blocks[i], rep.g[j][i]), inv_blocks[i + 1]))
        f.append(fj)
        g.append(gj)
    return StarRep(rep.quiver, f, g, rep.mode)


class InvalidCycle(ValueError):
    pass


def trace_along_cycle(rep: StarRep, cycle):
    """Trace of the matrix composition along a closed center-based walk.

    Steps are ("f", arm, level) or ("g", arm, level) with 1-based levels;
    the walk must start and end at the central vertex.  The empty walk
    gives the trace of the identity, i.e. the rank.
    """
    o = rep.ops
    arms, n_arms, mul = rep.quiver.arms, len(rep.quiver.arms), o.mul
    at = None  # None = center, else (arm, level)
    acc = None  # the product so far; the walk's first factor starts it
    for step in cycle:
        kind, j, level = step
        if not (0 <= j < n_arms) or not (1 <= level <= len(arms[j])):
            raise InvalidCycle(f"no vertex at arm {j} level {level}")
        if kind == "f":
            here = None if level == 1 else (j, level - 1)
            if at != here:
                raise InvalidCycle(f"outward step {step} does not start at {at}")
            factor = rep.f[j][level - 1]
            at = (j, level)
        elif kind == "g":
            if at != (j, level):
                raise InvalidCycle(f"inward step {step} does not start at {at}")
            factor = rep.g[j][level - 1]
            at = None if level == 1 else (j, level - 1)
        else:
            raise InvalidCycle(f"unknown step kind {kind!r}")
        acc = factor if acc is None else mul(factor, acc)
    if at is not None:
        raise InvalidCycle("walk does not return to the central vertex")
    return o.trace(o.eye(rep.quiver.rank) if acc is None else acc)


def center_cycles(quiver: StarQuiver, max_len: int):
    """All closed center-based walks of length <= max_len (excluding the
    empty walk), depth first: outward before inward, arm by arm.

    A walk is a run of excursions, each of which leaves the center into one
    arm and first comes back at its end.  So the walks are listed by first
    excursion, in the depth-first order of the arms, each followed by every
    walk that can continue it; the continuations of each length are built
    once.  No walk is shorter than 2, so none for ``max_len`` < 2."""
    if max_len < 2:
        return []
    excursions = []

    def descend(j, path, level, room):
        # path ends at level `level` of arm j; room >= 1 steps are left
        if level < len(quiver.arms[j]) and room > 1:
            descend(j, path + (("f", j, level + 1),), level + 1, room - 1)
        path += (("g", j, level),)
        if level == 1:
            excursions.append(path)
        elif room > 1:
            descend(j, path, level - 1, room - 1)

    for j, chain in enumerate(quiver.arms):
        if chain:
            descend(j, (("f", j, 1),), 1, max_len - 1)
    walks = {}  # length budget -> every walk within it

    def within(n):
        if n not in walks:
            walks[n] = []
            for e in excursions:
                if len(e) <= n:
                    walks[n].append(e)
                    walks[n].extend(e + rest for rest in within(n - len(e)))
        return walks[n]

    return within(max_len)
