"""The one place where the two entry formats meet.

Every matrix-valued object in the package (representations, residue
tuples, solutions) names its entry format with a mode string: ``"exact"``
for lists of row lists of ``Fraction`` entries, ``"float"`` for complex128
ndarrays.  ``ops(mode)`` validates that string and returns the backend,
``EXACT`` or ``floatarith.FLOAT``, importing the float one, and numpy with
it, on first use; callers resolve it once per object or function and then
use the same operations for either format.  The exact backend delegates
to ``linalg_exact`` and ignores every tolerance argument, because its
answers are exact; each of its kernels clears its rational input once with
``linalg_exact.clear``, the package's one clearing rule.  ``exact_float``
turns a rational into a float, and names a value too large for one.  Vectors are lists of rational entries, ``Fraction`` or
``int`` (exact), or 1-d ndarrays (float).

Three operations return different values in the two formats.  The exact
``powers`` of A are the integer matrices (D A)^j, D the lcm of the entry
denominators of A: rank and column space do not see the scale D^j, and
integer products cost far less than Fraction ones.  The exact
``nullspace`` vectors are primitive integer vectors, the float ones unit
vectors; the spans are what count.  The exact
``conjugation_gap`` is ``a p - p n``, which needs no inverse; the float one
is ``a - p n p^-1``.
"""

import math
from fractions import Fraction
from itertools import accumulate, repeat

from . import linalg_exact as ex


def exact_float(x):
    """``float(x)`` of a rational; a ValueError naming ``x`` when it is too
    large for a float, where ``float`` raises OverflowError."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{x} is too large for a float") from None


class _Exact:
    def coerce(self, a):
        return a

    def from_exact(self, a):
        return a

    def to_float(self, a):
        return ops("float").coerce([[exact_float(x) for x in row] for row in a])

    zeros = staticmethod(ex.mzeros)
    eye = staticmethod(ex.meye)
    shape = staticmethod(ex.shape)
    add = staticmethod(ex.madd)
    sub = staticmethod(ex.msub)
    mul = staticmethod(ex.mmul)
    trace = staticmethod(ex.mtrace)
    solve = staticmethod(ex.solve)

    def nullspace(self, a):
        """Right kernel basis: one primitive integer vector per non-pivot
        column (``int_kernel`` of the cleared matrix)."""
        return ex.int_kernel(ex.clear(a)[0])

    def powers(self, a, count):
        """(D a)^1 .. (D a)^count as integer matrices, D the lcm of the
        entry denominators of a."""
        return accumulate(repeat(ex.clear(a)[0], count), ex.imul)

    def norm(self, a):
        """Frobenius norm 2^k sqrt(s / 4^k), s the exact sum of squares, 1/2 < s / 4^k < 4; inf past float range."""
        s = sum((x * x for row in a for x in row), Fraction(0))
        k = (s.numerator.bit_length() - s.denominator.bit_length()) // 2
        try:
            return math.ldexp(math.sqrt(s / Fraction(4) ** k), k)
        except OverflowError:
            return math.inf

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

    columns = staticmethod(ex.mtrans)

    def from_columns(self, cols):
        return [[Fraction(x) for x in row] for row in zip(*cols)]

    def apply(self, m, v):
        """m v, one entry per row of m; a row whose length is not len(v)
        raises ValueError, as a float shape mismatch does."""
        return [sum((x * y for x, y in zip(row, v, strict=True)), Fraction(0)) for row in m]

    def flatten(self, a):
        return [x for row in a for x in row]

    def contains(self, span, vecs, *_):
        """Column space of vecs contained in column space of span?  One
        ``echelon`` of the cleared [span | vecs]: exactly when no pivot
        falls in the vecs columns, ``solve``'s consistency rule."""
        n = ex.shape(span)[1]
        return all(p < n for p in ex.echelon(ex.clear(ex.hstack([span, vecs]))[0])[1])

    def span_tracker(self, *_):
        return ex.Span()


EXACT = _Exact()


def ops(mode):
    """The backend for a mode string, the float one imported on first use; ValueError for any other."""
    if mode == "exact":
        return EXACT
    if mode == "float":
        from .floatarith import FLOAT
        return FLOAT
    raise ValueError("mode must be 'float' or 'exact'")
