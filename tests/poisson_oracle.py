"""Reference bracket and finite differences for differential tests.

``bracket_with`` is the library's former dense bracket of two quadratic
observables: it forms the bracket's Hessian S_F J S_G + (S_F J S_G)^T as a
d x d matrix and returns a leaf ``QuadraticObservable`` holding it, so a
nested call brackets two dense leaves.  ``fd_gradient`` is the former
central-difference gradient, which perturbs two fresh copies of the
representation per entry instead of the representation itself.
"""

from starquiver.poisson import QuadraticObservable, zero_gradient


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
                        plus = rep.copy()
                        minus = rep.copy()
                        (plus.f if kind == "f" else plus.g)[j][i][a, b] += h
                        (minus.f if kind == "f" else minus.g)[j][i][a, b] -= h
                        grads[j][i][a, b] = (obs.value(plus) - obs.value(minus)) / (2 * h)
    return out
