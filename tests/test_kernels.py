import math
import random

import numpy as np
import pytest

from oracles import great_circle_km
from sheaffuse import _kernels as K


def test_wrap_and_circle():
    assert K.wrap_deg(-30.0) == pytest.approx(330.0)
    assert K.wrap_deg(725.0) == pytest.approx(5.0)
    assert K.wrap_deg(360.0) == 0.0
    assert K.circle_dist_deg(359.0, 1.0) == pytest.approx(2.0)
    assert K.circle_dist_deg(10.0, 190.0) == pytest.approx(180.0)


def test_haversine_against_independent_formula():
    rng = random.Random(11)
    for _ in range(200):
        lon1, lat1 = rng.uniform(0, 359), rng.uniform(-80, 80)
        lon2, lat2 = rng.uniform(0, 359), rng.uniform(-80, 80)
        got = K.haversine_km(lon1, lat1, lon2, lat2)
        assert got == pytest.approx(
            great_circle_km(lon1, lat1, lon2, lat2), rel=1e-9, abs=1e-9
        )


# a pair of antipodes where h, the haversine of the central angle,
# rounds to 1.0000000000000002
ANTIPODES = (104.34510193420907, 80.05814743531747,
             284.3451019342091, -80.05814743531747)


@pytest.mark.parametrize("sin_ulps", [0, 1], ids=["libm", "sin-one-ulp-out"])
def test_haversine_clamps_h_rounded_past_one(monkeypatch, sin_ulps):
    """The square root of 1.0000000000000002 rounds to 1, but with a
    sine one ulp further from zero, which a libm may return, h rounds
    far enough past 1 that asin of its root raises ValueError without
    the clamp.  Either way the distance is half the circumference."""
    if sin_ulps:
        monkeypatch.setattr(K, "sin", lambda x: math.nextafter(
            math.sin(x), math.copysign(math.inf, math.sin(x))))
    assert K.haversine_km(*ANTIPODES) == math.pi * K.EARTH_RADIUS_KM


def test_bearing_points_east_scaled_by_latitude():
    # target due north
    assert K.equirect_bearing_deg(70.0, 40.0, 70.0, 41.0) == \
        pytest.approx(0.0)
    # target due east (smaller west longitude)
    assert K.equirect_bearing_deg(70.0, 0.0, 69.0, 0.0) == \
        pytest.approx(90.0)
    # east displacement shrinks with cos(sensor latitude)
    b = K.equirect_bearing_deg(70.0, 60.0, 69.0, 61.0)
    assert b == pytest.approx(math.degrees(math.atan2(0.5, 1.0)), abs=1e-9)


@pytest.mark.parametrize("sensor_lon_w, sensor_lat, lon_w, lat, bearing", [
    pytest.param(70.0, 40.0, 70.0, 41.0, 0.0, id="north-0"),
    pytest.param(70.0, 0.0, 69.0, 0.0, 90.0, id="east-90"),
    pytest.param(70.0, 40.0, 70.0, 39.0, 180.0, id="south-180"),
    pytest.param(-0.0, 40.0, 0.0, 39.0, 180.0, id="atan2(-0.0,-1)"),
    pytest.param(0.0, 0.0, 1e-20, 1.0, 0.0, id="tiny-west-wraps-to-0"),
])
def test_bearings_wrap_like_the_point_call(sensor_lon_w, sensor_lat, lon_w,
                                           lat, bearing):
    """The array form at the wrap's corners: within two ulps of the point
    call and inside [0, 360).  East -0.0 with north -1 gives -180 before
    the wrap; a tiny westward offset gives -x with x + 360 rounding to
    360, which must become 0."""
    want = K.equirect_bearing_deg(sensor_lon_w, sensor_lat, lon_w, lat)
    assert want == bearing
    (got,) = K.equirect_bearings_deg(sensor_lon_w, sensor_lat,
                                     np.array([lon_w]), np.array([lat]))
    assert 0.0 <= got < 360.0
    assert abs(got - want) <= 2.0 * np.spacing(want)


def test_dead_reckon_scales():
    km_per_deg = math.radians(1.0) * 6371.0
    lon, lat = K.dead_reckon_deg(70.0, 40.0, 0.0, km_per_deg, 1.0,
                                    6371.0, 0.0)
    assert (lon, lat) == pytest.approx((70.0, 41.0))
    lon, lat = K.dead_reckon_deg(70.0, 40.0, -km_per_deg, 0.0, 2.0,
                                    6371.0, 0.0)
    assert (lon, lat) == pytest.approx((68.0, 40.0))
