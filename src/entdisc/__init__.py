"""entdisc: side entanglement in minimum-error discrimination of qubit channels.

The library answers one question for any pair of qubit channels given in the
simultaneously diagonalizable form: does attaching half of an entangled pair
to the probe improve the best achievable success probability?  It provides

* ``smallmat``  -- the checked Hermitian eigensystem of 2x2/4x4 matrices,
* ``channels``  -- the two-angle channel parametrization, convex mixtures,
  Kraus sets and superoperators; the superoperator is the one way a
  channel acts,
* ``discrim``   -- discrimination parameters, closed-form trace-distance
  maxima, and the usefulness decision tree,
* ``oracle``    -- brute-force probe-state search, Helstrom measurements,
  and the seeded Monte-Carlo discrimination experiment on a qubit or pair
  probe (``simulate``),
* ``checks``    -- the seeded sweeps that compare the closed forms with the
  oracle,
* ``cli``       -- the ``entdisc`` command-line tool.

Submodules load on first use (``entdisc.oracle`` or
``from entdisc import oracle``), so a program pays only for the ones it
reads: the closed forms in ``discrim`` need ``math`` alone, and numpy loads
with the first matrix picture, the oracle or the checks.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({"channels", "checks", "cli", "discrim", "oracle", "smallmat"})

__all__ = ["channels", "discrim", "oracle", "smallmat", "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
