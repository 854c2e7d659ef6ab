"""Star-shaped quiver representations and parabolic Higgs data on the line.

The package is organized around these computational layers:

- ``combinat``: parabolic types, nilpotent classes, and the integer /
  rational predicates derived from them (weight smallness, residue-sum
  feasibility, spectral degrees, arm chain positivity).
- ``linalg_exact``: exact matrices on integers (one fraction-free
  elimination, one back substitution, one clearing rule) and dense
  polynomials, under the exact backend and the spectral layer.
- ``arith``: the seam between the two entry formats, exact ``Fraction``
  row lists and complex ndarrays: ``ops(mode)`` returns the backend
  (``EXACT``, or ``floatarith.FLOAT``, which it imports with numpy on first
  use) whose operations every layer below calls, so no layer tests the
  mode string itself.
- ``starrep``: representations of the doubled star quiver, the moment map,
  stability characters, arm rank tests and trace invariants.
- ``higgs``: the dictionary between moment-zero quiver representations and
  tuples of residue matrices with flags; slopes and irreducibility.
- ``spectral``: characteristic polynomials, vanishing orders, spectral
  polynomials and their integrality, all in plain integers.
- ``dsolve``: a numerical solver for nilpotent residue matrices with zero
  sum, with certification and an exact rational refinement.
- ``poisson``: the canonical bracket on the doubled-quiver phase space and
  the commutativity / entry-bracket / rank verifications.

``cli`` ties everything into one command line front end.
"""

__version__ = "0.1.0"
