"""Property tests across the degeneracy thresholds.

Each zone draws states whose b, c, sin(theta_a), |u| or |v| (q_B = u + v*j)
lies within a few decades of EPS_ZERO, or whose 1 + x0 = 2|q0|^2 is tiny,
near the south pole; the other angles are generic.  In every zone ``extract``
must equal the Quaternion route bit for bit, so each flag fires on the same
inputs, and every state off the south pole must round-trip.  Across the
range bounds of the seven angles (within and beyond EPS_NUM),
``reconstruct`` must equal ``reference_reconstruct`` bit for bit, or both
must raise the same OutOfRange.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfbloch import BlochCoordinates, phase_aligned_distance, reconstruct

from helpers import (
    assert_extract_matches_reference,
    assert_reconstruct_matches_reference,
)

PI = math.pi

# 1e-15 .. 1e-9: three decades either side of EPS_ZERO = 1e-12
TINY = st.floats(-15.0, -9.0).map(lambda e: 10.0 ** e)
NEAR_POLES = st.one_of(TINY, TINY.map(lambda d: PI - d))
NEAR_AXIS = st.one_of(NEAR_POLES, TINY.map(lambda d: PI + d),
                      TINY.map(lambda d: 2 * PI - d))
# theta_a with 1 + x0 = 2 sin^2((pi - theta_a)/2) in 1e-11 .. 1e-7, where
# sqrt((1 + x0)/2) would lose digits to cancellation: extract takes
# cos(theta_a/2) as |q0| instead
SOUTH_BAND = st.floats(-11.0, -7.0).map(
    lambda e: PI - 2.0 * math.asin(math.sqrt(0.5 * 10.0 ** e)))

POLAR = st.floats(0.0, PI)
AZIMUTH = st.floats(0.0, 2 * PI, exclude_max=True)
GENERIC = {"theta_a": POLAR, "phi_a": AZIMUTH, "chi": POLAR, "xi": AZIMUTH,
           "theta_b": POLAR, "phi_b": AZIMUTH, "zeta_b": AZIMUTH}

ZONES = {
    "b": {"phi_a": NEAR_AXIS},              # b = sin(theta_a) sin(phi_a)
    "c": {"chi": NEAR_POLES},               # c = |b| sin(chi)
    "sin_theta_a": {"theta_a": NEAR_POLES.filter(lambda t: t < 1.0)},
    "u": {"theta_b": TINY.map(lambda d: PI - d)},  # |u| = cos(theta_b/2)
    "v": {"theta_b": TINY},                        # |v| = sin(theta_b/2)
    "one_plus_x0": {"theta_a": SOUTH_BAND},
}


@pytest.mark.parametrize("zone", sorted(ZONES))
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_extract_across_threshold(zone, data):
    angles = {name: data.draw(ZONES[zone].get(name, generic), label=name)
              for name, generic in GENERIC.items()}
    s = reconstruct(BlochCoordinates(**angles))
    c = assert_extract_matches_reference(s)
    if c is not None:
        assert phase_aligned_distance(s, reconstruct(c)) <= 1e-9


# each range bound 0, pi and 2*pi, hit exactly, one ulp either side, or
# moved by up to 4 * EPS_NUM either way; NaN and inf ride along
BOUND = st.sampled_from([0.0, PI, 2 * PI])
NEAR_BOUND = st.one_of(
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    BOUND,
    BOUND.map(lambda b: math.nextafter(b, -math.inf)),
    BOUND.map(lambda b: math.nextafter(b, math.inf)),
    st.tuples(BOUND, st.floats(-4e-9, 4e-9)).map(sum),
)


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(angles=st.tuples(*(st.one_of(generic, NEAR_BOUND)
                          for generic in GENERIC.values())))
def test_reconstruct_matches_reference_near_range_bounds(angles):
    assert_reconstruct_matches_reference(BlochCoordinates(*angles))
