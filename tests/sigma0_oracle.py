"""Brute-force membership in Crawley-Boevey's set Sigma_0 for the star
quiver of a parabolic type, the reference for ``combinat.ds_feasible``.

Sigma_0 holds the positive roots alpha with p(alpha) > p(beta_1) + ... +
p(beta_k) for every decomposition alpha = beta_1 + ... + beta_k, k >= 2,
into positive roots, p = 1 - q and q the Tits form.  Nothing here uses the
fundamental-region rule of the library:

- a vector is classified as a real root, an imaginary root or no root by
  reflection descent (a positive root other than e_v stays positive under
  s_v, and a root with (beta, e_v) <= 0 at every vertex and connected
  support is imaginary);
- every simple root is real and the quiver has no loops, so any remainder
  of a decomposition splits into simple roots of p = 0, and the largest sum
  of p over decompositions is the largest over multisets of imaginary roots
  with sum at most alpha, found by memoized search.
"""

from functools import cache
from itertools import product


def star_vector(sigma):
    """(alpha, edges): the dimension vector, center first and then each arm
    outward, and the quiver's edges as index pairs."""
    alpha, edges = [sigma.rank], []
    for i in range(sigma.n_points):
        prev = 0
        for g in sigma.gamma(i):
            alpha.append(g)
            edges.append((prev, len(alpha) - 1))
            prev = len(alpha) - 1
    return tuple(alpha), tuple(edges)


def _neighbours(n, edges):
    out = [[] for _ in range(n)]
    for s, t in edges:
        out[s].append(t)
        out[t].append(s)
    return out


def _connected(support, nbrs):
    start = next(iter(support))
    seen, todo = {start}, [start]
    while todo:
        for u in nbrs[todo.pop()]:
            if u in support and u not in seen:
                seen.add(u)
                todo.append(u)
    return seen == support


def root_kind(beta, edges):
    """'real', 'imaginary' or None (not a root) for a nonnegative vector."""
    beta, nbrs = list(beta), _neighbours(len(beta), edges)
    while True:
        support = {v for v, x in enumerate(beta) if x}
        if not support or not _connected(support, nbrs):
            return None
        if sum(beta) == 1:
            return "real"
        pairings = [2 * beta[v] - sum(beta[u] for u in nbrs[v]) for v in range(len(beta))]
        v = next((v for v, c in enumerate(pairings) if c > 0), None)
        if v is None:
            return "imaginary"
        beta[v] -= pairings[v]
        if beta[v] < 0:
            return None


def p_value(beta, edges):
    """1 - q(beta), q the Tits form."""
    return 1 - sum(x * x for x in beta) + sum(beta[s] * beta[t] for s, t in edges)


def in_sigma0(alpha, edges):
    kind = root_kind(alpha, edges)
    if kind != "imaginary":
        return kind == "real" and sum(alpha) == 1
    imaginary = [
        b for b in product(*(range(x + 1) for x in alpha)) if b[0] and root_kind(b, edges) == "imaginary"
    ]  # an arm alone is of type A, so every imaginary root meets the center

    def minus(g, b):
        return tuple(y - x for x, y in zip(b, g))

    @cache
    def best(gamma):  # largest sum of p over multisets of imaginary roots within gamma
        fits = [b for b in imaginary if all(x <= y for x, y in zip(b, gamma))]
        return max([0] + [p_value(b, edges) + best(minus(gamma, b)) for b in fits])

    rivals = [p_value(b, edges) + best(minus(alpha, b)) for b in imaginary if b != alpha]
    return p_value(alpha, edges) > max([0] + rivals)
