"""Geometry kernels: angle wrapping, great-circle distance, bearings
and dead reckoning.

Conventions: longitudes are stored west-positive in decimal degrees,
latitudes north-positive, bearings in compass degrees clockwise from
north.  All distances are kilometers.
"""

from math import asin, atan2, cos, degrees, fmod, radians, sin, sqrt

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


def dead_reckon_deg(lon_w: float, lat: float, vx_w_kmh: float, vy_n_kmh: float,
                    t_h: float, radius_km: float, lon_ref_lat_deg: float):
    """Advance a position by a constant velocity for ``t_h`` hours.

    Velocities are km/h (west-positive, north-positive); the east-west
    kilometer-to-degree scale is fixed at the reference latitude.
    """
    km_per_deg = radians(1.0) * radius_km
    lon = lon_w + vx_w_kmh * t_h / (km_per_deg * cos(radians(lon_ref_lat_deg)))
    return lon, lat + vy_n_kmh * t_h / km_per_deg
