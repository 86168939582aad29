"""entdisc: side entanglement in minimum-error discrimination of qubit channels.

The library answers one question for any pair of qubit channels given in the
simultaneously diagonalizable form: does attaching half of an entangled pair
to the probe improve the best achievable success probability?  It provides

* ``smallmat``  -- Hermiticity checks, eigenvalues and trace norms of 2x2/4x4
  matrices,
* ``channels``  -- the two-angle channel parametrization, convex mixtures,
  Kraus/superoperator/affine pictures and Choi matrices,
* ``discrim``   -- discrimination parameters, closed-form trace-distance
  maxima, and the usefulness decision tree,
* ``oracle``    -- brute-force probe-state search, Helstrom measurements and
  seeded Monte-Carlo discrimination experiments,
* ``cli``       -- the ``entdisc`` command-line tool.
"""

__version__ = "0.1.0"

from . import channels, discrim, oracle, smallmat  # noqa: F401

__all__ = ["channels", "discrim", "oracle", "smallmat", "__version__"]
