"""Qubit channels in the two-angle diagonal-frame parametrization.

A channel on the closure of extreme points of the CPTP set is fixed by two
angles (phi, theta) in [0, pi] through the Kraus pair

    K0 = [[cos(theta), 0], [0, cos(phi)]],
    K1 = [[0, sin(phi)], [sin(theta), 0]],

and a general channel in the simultaneously diagonalizable family is a
convex mixture of two such maps.  This module builds those objects, their
Kraus sets and superoperators, and parses the channel literal syntax used
by the CLI:

    identity
    ad(phi)
    pauli(lambda,theta,theta2)
    extremal(phi,theta)
    mix(lambda;phi,theta;phi2,theta2)

with all angles in radians.

The parameters and literals need only ``math``.  The matrix pictures
(Kraus sets, superoperators) import numpy when first called, so the
closed-form path through :mod:`discrim` never loads numpy.  They stay
defined in this module, where callers and tools that look a channel
function up by module attribute find them.

Every Kraus set is built by one function, :func:`kraus_operators`: it
writes the entries of the weighted operators as Python floats, drops the
operators whose entries are all within 1e-15 of zero, and makes one
complex array of the rest.  A Kraus set is built for every superoperator,
and a numpy call per operator would cost more than its arithmetic.
:func:`superoperator` is the one way a channel acts on a state, and
:func:`extend_superoperator` the one way its action on one qubit of a pair
is built: by copying the entries of the qubit superoperator.  No function
here applies a channel to a state; :mod:`oracle` applies stacks of these
matrices to its probes, and reads the affine Bloch picture and the Choi
matrix off them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

QUASI_EXTREME_TOL = 1e-10


@dataclass(frozen=True)
class ExtremalChannel:
    """A closure-of-extreme-points qubit channel, angles in [0, pi]."""

    phi: float
    theta: float

    def __post_init__(self):
        for name, value in (("phi", self.phi), ("theta", self.theta)):
            if not (0.0 <= value <= math.pi):
                raise ValueError(f"{name} must lie in [0, pi], got {value}")


@dataclass(frozen=True)
class QubitChannel:
    """Convex mixture lam * first + (1 - lam) * second.

    lam = 1 denotes a pure extremal channel; the second component is then
    ignored by the action but still stored.
    """

    lam: float
    first: ExtremalChannel
    second: ExtremalChannel

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")

    @classmethod
    def extremal(cls, phi: float, theta: float) -> "QubitChannel":
        c = ExtremalChannel(phi, theta)
        return cls(1.0, c, c)

    @property
    def is_extremal(self) -> bool:
        return self.lam == 1.0 or self.first == self.second


def kraus_operators(c: QubitChannel) -> np.ndarray:
    """Scaled Kraus operators sqrt(lam) K0, K1 of the first component and
    sqrt(1 - lam) K0, K1 of the second, as one (count, 2, 2) array;
    operators whose entries are all within 1e-15 of zero are dropped."""
    import numpy as np

    ops = []
    for w, e in ((math.sqrt(c.lam), c.first), (math.sqrt(1.0 - c.lam), c.second)):
        ct, cp = math.cos(e.theta), math.cos(e.phi)
        sp, st = math.sin(e.phi), math.sin(e.theta)
        ops.append((w * ct, 0.0, 0.0, w * cp))
        ops.append((0.0, w * sp, w * st, 0.0))
    kept = [op for op in ops if max(map(abs, op)) > 1e-15]
    return np.array(kept, dtype=complex).reshape(-1, 2, 2)


def superoperator(c: QubitChannel) -> np.ndarray:
    """Matrix of rho -> sum_k K_k rho K_k^dag on the row-major vec(rho);
    :func:`extend_superoperator` expands it to id (x) channel."""
    import numpy as np

    ops = kraus_operators(c)
    # sum_k kron(K_k, conj(K_k)): row (a, c), column (b, d)
    return np.einsum("kab,kcd->acbd", ops, ops.conj()).reshape(4, 4)


def extend_superoperator(smat: np.ndarray) -> np.ndarray:
    """The 16 x 16 matrix of id (x) N on two-qubit states, from the 4 x 4
    superoperator ``smat`` of N (or a stack of them, one per leading index).

    The identity acts on the left (reference) qubit in the basis order
    |00>, |01>, |10>, |11>: id (x) N maps |a i><b j| to
    |a><b| (x) N(|i><j|), so the matrix holds a copy of ``smat`` for each
    (a, b) and zeros elsewhere, and building it only copies entries.
    """
    import numpy as np

    lead = smat.shape[:-2]
    blocks = smat.reshape(*lead, 2, 2, 2, 2)
    # row (a, i, b, j), column (c, k, d, l), nonzero only for c = a, d = b
    out = np.zeros((*lead, 2, 2, 2, 2, 2, 2, 2, 2), dtype=smat.dtype)
    for a in (0, 1):
        for b in (0, 1):
            out[..., a, :, b, :, a, :, b, :] = blocks
    return out.reshape(*lead, 16, 16)


def quasi_extreme_sines(sin_phi: float, sin_theta: float) -> bool:
    """True when sin(theta) = sin(phi): the ellipsoid of the component
    with these sines touches the Bloch sphere at exactly two points and the
    map is not a true extreme point."""
    return abs(sin_theta - sin_phi) <= QUASI_EXTREME_TOL


# ---------------------------------------------------------------------------
# Channel literal syntax


class ChannelParseError(ValueError):
    pass


_LITERAL = re.compile(r"^\s*([a-z]+)\s*(?:\((.*)\))?\s*$")


def _parse_floats(body: str, sep: str, count: int, literal: str) -> list:
    parts = [p.strip() for p in body.split(sep)]
    if len(parts) != count:
        raise ChannelParseError(
            f"expected {count} fields in channel literal {literal!r}"
        )
    values = []
    for p in parts:
        try:
            values.append(float(p))
        except ValueError:
            raise ChannelParseError(
                f"bad number {p!r} in channel literal {literal!r}"
            ) from None
    return values


def parse_channel(text: str) -> QubitChannel:
    """Parse a channel literal; raises ChannelParseError naming the token."""
    m = _LITERAL.match(text)
    if not m:
        raise ChannelParseError(f"unrecognized channel literal {text!r}")
    head, body = m.group(1), m.group(2)
    try:
        if head == "identity":
            if body not in (None, ""):
                raise ChannelParseError(f"identity takes no arguments: {text!r}")
            return QubitChannel.extremal(0.0, 0.0)
        if head == "ad":
            (phi,) = _parse_floats(body or "", ",", 1, text)
            return QubitChannel.extremal(phi, 0.0)
        if head == "extremal":
            phi, theta = _parse_floats(body or "", ",", 2, text)
            return QubitChannel.extremal(phi, theta)
        if head == "pauli":
            lam, t1, t2 = _parse_floats(body or "", ",", 3, text)
            return QubitChannel(
                lam, ExtremalChannel(t1, t1), ExtremalChannel(t2, math.pi - t2)
            )
        if head == "mix":
            if body is None:
                raise ChannelParseError(f"mix needs arguments: {text!r}")
            groups = [g.strip() for g in body.split(";")]
            if len(groups) != 3:
                raise ChannelParseError(
                    f"mix literal needs 3 ';'-separated groups: {text!r}"
                )
            (lam,) = _parse_floats(groups[0], ",", 1, text)
            p1, t1 = _parse_floats(groups[1], ",", 2, text)
            p2, t2 = _parse_floats(groups[2], ",", 2, text)
            return QubitChannel(
                lam, ExtremalChannel(p1, t1), ExtremalChannel(p2, t2)
            )
    except ValueError as exc:
        if isinstance(exc, ChannelParseError):
            raise
        raise ChannelParseError(f"invalid channel literal {text!r}: {exc}") from None
    raise ChannelParseError(f"unknown channel kind {head!r} in {text!r}")


def format_channel(c: QubitChannel) -> str:
    """Canonical literal for a channel (round-trips through parse_channel)."""
    if c.is_extremal:
        return f"extremal({c.first.phi:.17g},{c.first.theta:.17g})"
    return (
        f"mix({c.lam:.17g};{c.first.phi:.17g},{c.first.theta:.17g};"
        f"{c.second.phi:.17g},{c.second.theta:.17g})"
    )


def format_pair(c1, c2) -> dict:
    """The two channel literals of a pair, as report and record inputs."""
    return {"channel1": format_channel(c1), "channel2": format_channel(c2)}
