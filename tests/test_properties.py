"""Symmetry and range properties of the closed forms, over drawn channel pairs.

Swapping the two channels negates every discrimination parameter, and
swapping phi and theta in both channels exchanges alpha and beta (the
mirror s -> 1 - s of the profiles); neither changes a distance or, away
from a tree split, a verdict.  The examples come from the derandomized
profile in ``conftest.py``.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from entdisc import checks, discrim  # noqa: E402
from entdisc.channels import ExtremalChannel, QubitChannel  # noqa: E402

DIST_TOL = 1e-12
angle = st.floats(0.0, math.pi)
# (lam, (phi, theta), (phi2, theta2)); lam = 1 is an extremal channel
mixture_spec = st.tuples(
    st.floats(0.0, 1.0), st.tuples(angle, angle), st.tuples(angle, angle)
)
channel_spec = st.one_of(
    st.tuples(st.just(1.0), st.tuples(angle, angle), st.tuples(angle, angle)),
    mixture_spec,
)


def build(spec, swap_angles=False):
    lam, *parts = spec
    first, second = (
        ExtremalChannel(*(part[::-1] if swap_angles else part)) for part in parts
    )
    if lam == 1.0:
        return QubitChannel.extremal(first.phi, first.theta)
    return QubitChannel(lam, first, second)


def settled(cls) -> bool:
    """A verdict away from every tree split, where it must be exact."""
    return not cls.boundary and not (
        cls.margins and min(abs(v) for v in cls.margins.values()) < checks.TREE_SLACK
    )


def assert_same_answer(a, b):
    assert abs(a.params.single.value - b.params.single.value) <= DIST_TOL
    assert abs(a.params.entangled.value - b.params.entangled.value) <= DIST_TOL
    if settled(a) and settled(b):
        assert a.useful == b.useful


@hypothesis.given(channel_spec, channel_spec)
def test_swapping_channels_changes_nothing(spec1, spec2):
    c1, c2 = build(spec1), build(spec2)
    assert_same_answer(discrim.classify_pair(c1, c2), discrim.classify_pair(c2, c1))


@hypothesis.given(channel_spec, channel_spec)
def test_swapping_phi_and_theta_changes_nothing(spec1, spec2):
    plain = discrim.classify_pair(build(spec1), build(spec2))
    swapped = discrim.classify_pair(build(spec1, True), build(spec2, True))
    assert_same_answer(plain, swapped)


@hypothesis.given(channel_spec, channel_spec)
def test_distances_lie_in_range(spec1, spec2):
    p = discrim.compute_params(build(spec1), build(spec2))
    for r in (p.single, p.entangled):
        assert 0.0 <= r.value <= 2.0 + DIST_TOL
        assert 0.0 <= r.arg <= 1.0


@hypothesis.given(channel_spec, channel_spec, st.floats(0.0, 1.0))
def test_entangled_profile_dominates_single(spec1, spec2, s):
    p = discrim.compute_params(build(spec1), build(spec2))
    assert discrim.entangled_profile(p, s) >= discrim.g_single(p, s) - DIST_TOL


# both cos-sign families: cos theta = cos phi, and cos theta = -cos phi
quasi_extreme = st.builds(
    lambda flip, theta: QubitChannel.extremal(math.pi - theta if flip else theta, theta),
    st.booleans(),
    angle,
)


@hypothesis.given(quasi_extreme, quasi_extreme)
def test_quasi_extreme_single_maximum_never_exceeds_entangled(c1, c2):
    # the closed forms themselves, not the T1 shortcut of classify_pair
    p = discrim.compute_params(c1, c2)
    assert p.single.value <= p.entangled.value + DIST_TOL


# mixtures only: pairs of extremal channels did not land in the
# single-radical regime in 200000 seeded draws.  About one mixture pair in
# five does, so each example draws four pairs and checks those that land.
@hypothesis.given(
    st.lists(st.tuples(mixture_spec, mixture_spec), min_size=4, max_size=4),
    st.floats(0.0, 1.0),
)
def test_single_radical_maximum_dominates_its_profile(specs, s):
    params = [discrim.compute_params(build(a), build(b)) for a, b in specs]
    params = [p for p in params if p.gamma_m**2 < p.alpha * p.beta < p.gamma_M**2]
    hypothesis.assume(params)
    for p in params:
        assert (
            discrim.max_distance_entangled(p).value
            >= discrim.entangled_profile(p, s) - 1e-15
        )


def two_radical(p) -> bool:
    ab = p.alpha * p.beta
    return p.gamma_M**2 > ab and p.gamma_m**2 >= ab


@hypothesis.given(
    channel_spec, channel_spec, st.floats(0.0, 1.0), st.floats(0.0, 1.0)
)
def test_two_radical_profile_is_midpoint_concave(spec1, spec2, s, t):
    # the theorem the two-radical maximum's bracketed Newton search relies on
    p = discrim.compute_params(build(spec1), build(spec2))
    hypothesis.assume(two_radical(p))
    mid = discrim.f_entangled(p, 0.5 * (s + t))
    chord = 0.5 * (discrim.f_entangled(p, s) + discrim.f_entangled(p, t))
    assert mid >= chord - 1e-15


@hypothesis.given(channel_spec, channel_spec, st.floats(0.0, 1.0))
def test_two_radical_maximum_dominates_its_profile(spec1, spec2, s):
    p = discrim.compute_params(build(spec1), build(spec2))
    hypothesis.assume(two_radical(p))
    assert discrim.max_distance_entangled(p).value >= discrim.f_entangled(p, s) - 1e-15
