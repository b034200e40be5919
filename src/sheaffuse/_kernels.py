"""Geometry kernels: angle wrapping, great-circle distance, bearings
and dead reckoning.

Conventions: longitudes are stored west-positive in decimal degrees,
latitudes north-positive, bearings in compass degrees clockwise from
north.  All distances are kilometers.
"""

from math import asin, atan2, cos, degrees, fmod, radians, sin, sqrt

import numpy as np

EARTH_RADIUS_KM = 6371.0


def wrap_deg(angle: float) -> float:
    """Normalize an angle in degrees to [0, 360)."""
    a = fmod(angle, 360.0)
    if a < 0.0:
        a += 360.0
    # fmod can round back up to 360.0 for tiny negatives
    return 0.0 if a == 360.0 else a


def circle_dist_deg(a: float, b: float) -> float:
    """Shortest-arc separation of two angles, in degrees (0..180)."""
    d = fmod(abs(a - b), 360.0)
    return 360.0 - d if d > 180.0 else d


def haversine_km(lon_w1: float, lat1: float, lon_w2: float, lat2: float,
                 radius_km: float = EARTH_RADIUS_KM) -> float:
    """Great-circle distance between two (west-longitude, latitude) points."""
    phi1 = radians(lat1)
    phi2 = radians(lat2)
    dphi = phi2 - phi1
    dlam = radians(lon_w2 - lon_w1)
    h = sin(dphi * 0.5) ** 2 + cos(phi1) * cos(phi2) * sin(dlam * 0.5) ** 2
    if h > 1.0:
        h = 1.0
    return 2.0 * radius_km * asin(sqrt(h))


def equirect_bearing_deg(sensor_lon_w: float, sensor_lat: float,
                         lon_w: float, lat: float) -> float:
    """Compass bearing from a sensor to a point on a local flat chart.

    East displacement is scaled by cos(sensor latitude); the result is
    atan2(east, north) in degrees wrapped to [0, 360).
    """
    east = (sensor_lon_w - lon_w) * cos(radians(sensor_lat))
    north = lat - sensor_lat
    return wrap_deg(degrees(atan2(east, north)))


def equirect_bearings_deg(sensor_lon_w: float, sensor_lat: float,
                          lon_w: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """``equirect_bearing_deg`` over arrays of points, wrapped like
    ``wrap_deg``.  ``np.arctan2`` may differ from ``math.atan2`` in the
    last bit, so a bearing may differ from the point call's by up to
    two ulps of its value in degrees."""
    east = (sensor_lon_w - lon_w) * cos(radians(sensor_lat))
    north = lat - sensor_lat
    # degrees(arctan2) lies in [-180, 180], so adding 360 to a negative
    # bearing wraps it; a tiny negative one rounds to 360, which is 0
    a = np.degrees(np.arctan2(east, north))
    a = np.where(a < 0.0, a + 360.0, a)
    return np.where(a == 360.0, 0.0, a)


def dead_reckon_deg(lon_w: float, lat: float, vx_w_kmh: float, vy_n_kmh: float,
                    t_h: float, radius_km: float, lon_ref_lat_deg: float):
    """Advance a position by a constant velocity for ``t_h`` hours.

    Velocities are km/h (west-positive, north-positive); the east-west
    kilometer-to-degree scale is fixed at the reference latitude.  The
    state may be arrays of positions, velocities and times as well.
    """
    km_per_deg = radians(1.0) * radius_km
    lon = lon_w + vx_w_kmh * t_h / (km_per_deg * cos(radians(lon_ref_lat_deg)))
    return lon, lat + vy_n_kmh * t_h / km_per_deg
