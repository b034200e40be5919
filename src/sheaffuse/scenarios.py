"""Executable reference scenarios.

Three fixture families exercise the whole pipeline:

* a search-and-rescue style localization problem (bearings, dead
  reckoning, a satellite detection, and a coordinating office),
* the two-camera obstacle sheaves used for cohomology analysis,
* coin-tabulation sheaves in mosaic / count / value variants.

The localization observation tables are embedded verbatim as fixtures;
metric weights mixing degrees, hours, and kilometers are explicit
configuration surfaced in every report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K
from . import spaces as sp
from .consistency import Assignment
from .sheaf import (
    Linear,
    Projection,
    RestrictionMap,
    Sheaf,
    register_builtin,
    resolve_builtin,
)
from .topology import EntityUniverse, Topology, generate_topology

# ---------------------------------------------------------------------------
# search-and-rescue scenario


@dataclass(frozen=True)
class SarWeights:
    """Unit-mixing weights of the localization metric, all in km terms.

    geo_km scales great-circle kilometers; bearing and time weights
    convert degrees and hours to comparable kilometers.  Defaults are
    calibrated so the reference cases reproduce the documented
    consistency-radius structure; override freely.
    """

    geo_km: float = 0.43
    bearing_km_per_deg: float = 7.85
    time_km_per_hour: float = 10.0
    velocity_km_per_kmh: float = 1.0

    def as_dict(self):
        return {
            "geo_km": self.geo_km,
            "bearing_km_per_deg": self.bearing_km_per_deg,
            "time_km_per_hour": self.time_km_per_hour,
            "velocity_km_per_kmh": self.velocity_km_per_kmh,
        }


@dataclass(frozen=True)
class SarParameters:
    """Sensor geometry: positions are (west longitude deg, latitude deg)."""

    rdf1: tuple[float, float] = (73.662574, 42.7338328)
    rdf2: tuple[float, float] = (77.0897374, 38.9352387)
    true_crash: tuple[float, float] = (64.63672, 44.24545)
    earth_radius_km: float = 6371.0
    # reference latitude of the east-west km/deg scale used by the
    # kinematic restriction maps (mid-track for the reference cases)
    lon_ref_lat_deg: float = 43.175
    weights: SarWeights = field(default_factory=SarWeights)


# Observation fixtures: values exactly as recorded per case.
# Units: deg W, deg N, m, km/h (west/north positive), hours, compass deg.
SAR_CASES = {
    1: {
        "flight_plan": {"x": 70.662, "y": 42.829, "z": 11178},
        "atc": {"x": 70.587, "y": 42.741, "z": 11346, "vx": -495, "vy": 164},
        "rdf1": {"theta1": 77.1, "t": 0.943},
        "rdf2": {"theta2": 61.3, "t": 0.890},
        "sat": {"sx": 64.599, "sy": 44.243},
        "field": {"x": 70.649, "y": 42.753, "z": 11220,
                  "vx": -495, "vy": 164, "t": 0.928},
    },
    2: {
        "flight_plan": {"x": 70.663, "y": 42.752, "z": 11299},
        "atc": {"x": 70.657, "y": 42.773, "z": 11346, "vx": -495, "vy": 164},
        "rdf1": {"theta1": 77.2, "t": 0.930},
        "rdf2": {"theta2": 63.2, "t": 0.974},
        "sat": {"sx": 64.630, "sy": 44.287},
        "field": {"x": 70.668, "y": 42.809, "z": 11431,
                  "vx": -495, "vy": 164, "t": 1.05},
    },
    3: {
        "flight_plan": {"x": 70.612, "y": 42.834, "z": 11237},
        "atc": {"x": 70.617, "y": 42.834, "z": 11236, "vx": -419, "vy": 310},
        "rdf1": {"theta1": 77.2, "t": 0.985},
        "rdf2": {"theta2": 63.3, "t": 1.05},
        "sat": {"sx": 62.742, "sy": 44.550},
        "field": {"x": 70.626, "y": 42.814, "z": 11239,
                  "vx": -419, "vy": 311, "t": 1.02},
    },
}

# Reference outputs recorded alongside the observations: the crash
# estimate from dead reckoning of the field values, the consistency
# radius, and the dead-reckoning error to the true crash site.
SAR_REFERENCE = {
    1: {"crash_est": (65.0013, 44.1277), "radius_km": 15.7,
        "dead_reckon_error_km": 16.1},
    2: {"crash_est": (64.2396, 44.3721), "radius_km": 11.6,
        "dead_reckon_error_km": 17.3},
    3: {"crash_est": (65.3745, 45.6703), "radius_km": 152.0,
        "dead_reckon_error_km": 193.0},
}

SAR_ENTITIES = ("x", "y", "z", "vx", "vy", "t", "theta1", "theta2", "s")
SAR_SUBBASE = {
    "U1": ("x", "y", "z"),
    "U2": ("x", "y", "z", "vx", "vy"),
    "U3": ("theta1", "t"),
    "U4": ("theta2", "t"),
    "U5": ("theta1", "theta2", "s"),
    "X": SAR_ENTITIES,
}

# each open of the SAR sheaf with a stalk of its own: its entities, the
# case row that observes it (None for none) and that row's fields in
# stalk coordinate order; a detection is a position
SAR_OPENS = {
    "U1": (SAR_SUBBASE["U1"], "flight_plan", ("x", "y", "z")),
    "U2": (SAR_SUBBASE["U2"], "atc", ("x", "y", "z", "vx", "vy")),
    "U3": (SAR_SUBBASE["U3"], "rdf1", ("theta1", "t")),
    "U4": (SAR_SUBBASE["U4"], "rdf2", ("theta2", "t")),
    "U5": (SAR_SUBBASE["U5"], "sat", ("sx", "sy")),
    "X": (SAR_ENTITIES, "field", ("x", "y", "z", "vx", "vy", "t")),
    "t": (("t",), None, ("t",)),
    "theta1": (("theta1",), None, ("theta1",)),
    "theta2": (("theta2",), None, ("theta2",)),
}

# lift envelopes per field, used when linearizing the scenario; the
# detection's must cover the whole dead-reckoning image: the position
# envelope plus max |v| * max t of drift on each axis
SAR_LIFT_RANGES = {
    "x": (55.0, 80.0), "y": (38.0, 50.0), "z": (0.0, 15000.0),
    "vx": (-600.0, 600.0), "vy": (-600.0, 600.0), "t": (0.0, 2.0),
    "theta1": (0.0, 360.0), "theta2": (0.0, 360.0),
    "sx": (40.0, 95.0), "sy": (27.0, 61.0),
}


def sar_lift_ranges() -> dict:
    """Per-open coordinate envelopes for stochastic linearization,
    keyed by open-set key."""
    t = build_sar_topology()
    return {t.open_for(entities).key(): [list(SAR_LIFT_RANGES[f])
                                         for f in fields]
            for entities, _, fields in SAR_OPENS.values()}


def _bearing_time_factory(p):
    sensor_lon, sensor_lat = p["sensor_lon_w"], p["sensor_lat"]
    radius, ref_lat = p["earth_radius_km"], p["lon_ref_lat_deg"]

    def fn(state):
        x, y, _z, vx, vy, t = state
        lon, lat = K.dead_reckon_deg(x, y, vx, vy, t, radius, ref_lat)
        return (K.equirect_bearing_deg(sensor_lon, sensor_lat, lon, lat), t)

    return fn


def _bearing_time_batch(p):
    sensor_lon, sensor_lat = p["sensor_lon_w"], p["sensor_lat"]
    radius, ref_lat = p["earth_radius_km"], p["lon_ref_lat_deg"]

    def fn(states):
        x, y, _z, vx, vy, t = states.T
        lon, lat = K.dead_reckon_deg(x, y, vx, vy, t, radius, ref_lat)
        return np.column_stack(
            (K.equirect_bearings_deg(sensor_lon, sensor_lat, lon, lat), t))

    return fn


def _bearing_of_detection_factory(p):
    sensor_lon, sensor_lat = p["sensor_lon_w"], p["sensor_lat"]

    def fn(detection):
        return (K.equirect_bearing_deg(sensor_lon, sensor_lat,
                                       detection[0], detection[1]),)

    return fn


def _bearing_of_detection_batch(p):
    sensor_lon, sensor_lat = p["sensor_lon_w"], p["sensor_lat"]

    def fn(detections):
        lon, lat = detections.T
        return K.equirect_bearings_deg(sensor_lon, sensor_lat,
                                       lon, lat)[:, None]

    return fn


def _dead_reckon_factory(p):
    radius, ref_lat = p["earth_radius_km"], p["lon_ref_lat_deg"]

    def fn(state):
        x, y, _z, vx, vy, t = state
        return K.dead_reckon_deg(x, y, vx, vy, t, radius, ref_lat)

    return fn


def _dead_reckon_batch(p):
    point = _dead_reckon_factory(p)
    # dead_reckon_deg takes arrays as it is: one state per column
    return lambda states: np.column_stack(point(states.T))


# the state maps never read the altitude z, axis 2 of the state
_STATE_READS = (0, 1, 3, 4, 5)
register_builtin("bearing_and_time_of_state", _bearing_time_factory,
                 _bearing_time_batch, reads=_STATE_READS)
register_builtin("bearing_of_detection", _bearing_of_detection_factory,
                 _bearing_of_detection_batch)
register_builtin("dead_reckon_state", _dead_reckon_factory,
                 _dead_reckon_batch, reads=_STATE_READS)


def build_sar_topology() -> Topology:
    universe = EntityUniverse(SAR_ENTITIES)
    return generate_topology(universe, SAR_SUBBASE.values())


def build_sar_sheaf(params: SarParameters | None = None) -> Sheaf:
    """The full localization sheaf: sensor stalks, geometric restrictions
    between the coordinating office, bearings, and detections."""
    params = params or SarParameters()
    w = params.weights
    t = build_sar_topology()

    def o(*names):
        return t.open_for(names)

    u1, u2 = o("x", "y", "z"), o("x", "y", "z", "vx", "vy")
    u3, u4 = o("theta1", "t"), o("theta2", "t")
    u5, top = o("theta1", "theta2", "s"), t.full
    time_o, th1, th2 = o("t"), o("theta1"), o("theta2")

    geo = sp.geo3d(w.geo_km)
    vel = sp.euclidean(2, w.velocity_km_per_kmh)
    hrs = sp.time_line(w.time_km_per_hour)
    brg = sp.circle(w.bearing_km_per_deg)
    stalks = {
        u1: geo,
        u2: sp.product([geo, vel]),
        u3: sp.product([brg, hrs]),
        u4: sp.product([brg, hrs]),
        u5: sp.geo2d(w.geo_km),
        top: sp.product([geo, vel, hrs]),
        time_o: hrs,
        th1: brg,
        th2: brg,
    }

    def builtin(name, sensor=None):
        p = {"earth_radius_km": params.earth_radius_km,
             "lon_ref_lat_deg": params.lon_ref_lat_deg}
        if sensor is not None:
            p["sensor_lon_w"], p["sensor_lat"] = sensor
        return resolve_builtin(name, p)

    restrictions = [
        RestrictionMap(top, u2, Projection(range(5))),
        RestrictionMap(top, u3, builtin("bearing_and_time_of_state",
                                        params.rdf1)),
        RestrictionMap(top, u4, builtin("bearing_and_time_of_state",
                                        params.rdf2)),
        RestrictionMap(top, u5, builtin("dead_reckon_state")),
        RestrictionMap(u2, u1, Projection(range(3))),
        RestrictionMap(u3, th1, Projection([0])),
        RestrictionMap(u3, time_o, Projection([1])),
        RestrictionMap(u4, th2, Projection([0])),
        RestrictionMap(u4, time_o, Projection([1])),
        RestrictionMap(u5, th1, builtin("bearing_of_detection",
                                        params.rdf1)),
        RestrictionMap(u5, th2, builtin("bearing_of_detection",
                                        params.rdf2)),
    ]
    return Sheaf(t, stalks, restrictions)


def sar_case_assignment(sh: Sheaf, case: int) -> Assignment:
    """Observations of one reference case as a partial assignment."""
    a = Assignment(sh)
    for entities, row, fields in SAR_OPENS.values():
        if row is not None:
            u = sh.topology.open_for(entities)
            obs = SAR_CASES[case][row]
            a.set(u, sp.make_point(sh.stalk(u.id),
                                   tuple(obs[f] for f in fields)))
    return a


def dead_reckon_estimate(params: SarParameters, case: int):
    """Crash estimate from the field-office row of a case."""
    f = SAR_CASES[case]["field"]
    return K.dead_reckon_deg(f["x"], f["y"], f["vx"], f["vy"], f["t"],
                             params.earth_radius_km, params.lon_ref_lat_deg)


def crash_error_km(params: SarParameters, estimate) -> float:
    """Great-circle distance from an estimate to the true crash site."""
    return K.haversine_km(estimate[0], estimate[1],
                          params.true_crash[0], params.true_crash[1],
                          params.earth_radius_km)


# ---------------------------------------------------------------------------
# obstacle scenario (two cameras, double overlap)


def build_obstacle_sheaves(m: int = 4, n: int = 4, p: int = 2, q: int = 2):
    """The mosaic sheaf (pixel vectors, crop restrictions) and the
    object-probability sheaf on the double-overlap camera topology.

    Pixel counts are structural parameters; each pixel carries 3 color
    channels.  The camera layout puts the first overlap's pixels first,
    the second overlap's next, then the camera-only pixels.
    """
    universe = EntityUniverse(("L", "R", "V1", "V2"))
    t = generate_topology(universe, [("L", "V1", "V2"), ("R", "V1", "V2"),
                                     ("V1",), ("V2",)])

    def o(*names):
        return t.open_for(names)

    ul, ur = o("L", "V1", "V2"), o("R", "V1", "V2")
    v12, v1, v2 = o("V1", "V2"), o("V1"), o("V2")

    dp, dq = 3 * p, 3 * q
    mosaic_stalks = {
        ul: sp.euclidean(3 * m), ur: sp.euclidean(3 * n),
        v12: sp.euclidean(dp + dq), v1: sp.euclidean(dp),
        v2: sp.euclidean(dq),
    }
    crop = Projection(range(dp + dq))
    mosaic_restrictions = [
        RestrictionMap(ul, v12, crop),
        RestrictionMap(ur, v12, crop),
        RestrictionMap(v12, v1, Projection(range(dp))),
        RestrictionMap(v12, v2, Projection(range(dp, dp + dq))),
    ]
    mosaic = Sheaf(t, mosaic_stalks, mosaic_restrictions)

    prob_stalks = {
        ul: sp.euclidean(2), ur: sp.euclidean(2),
        v12: sp.euclidean(2), v1: sp.euclidean(1), v2: sp.euclidean(1),
    }
    # a camera reports (probability on its own side, probability in the
    # overlap); the overlap stalk keeps one probability per component
    spread = Linear([[0.0, 1.0], [0.0, 1.0]])
    prob_restrictions = [
        RestrictionMap(ul, v12, spread),
        RestrictionMap(ur, v12, spread),
        RestrictionMap(v12, v1, Projection([0])),
        RestrictionMap(v12, v2, Projection([1])),
    ]
    prob = Sheaf(t, prob_stalks, prob_restrictions)
    return mosaic, prob


# ---------------------------------------------------------------------------
# coin scenario (two cameras over a table)

COIN_VALUES_CENTS = (1.0, 5.0, 10.0, 25.0)
# eight abstract detection slots, two per coin type
COIN_COUNTING_MATRIX = [
    [1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 1],
]


def build_coin_sheaf(variant: str = "counts") -> Sheaf:
    """Two-camera sheaf over {left, overlap, right}.

    mosaic: pixel vectors with projection crops on the overlap.
    counts: the overlap stalk is a 4-long coin-count vector; the right
        camera supplies an abstract detection vector reduced by a linear
        counting map.
    value: the overlap stalk is the total value in cents.
    """
    universe = EntityUniverse(("left", "overlap", "right"))
    t = generate_topology(universe, [("left", "overlap"),
                                     ("overlap", "right")])

    def o(*names):
        return t.open_for(names)

    u1, u2, ov = o("left", "overlap"), o("overlap", "right"), o("overlap")

    if variant == "mosaic":
        stalks = {u1: sp.euclidean(6), u2: sp.euclidean(6),
                  ov: sp.euclidean(2)}
        restrictions = [
            RestrictionMap(u1, ov, Projection(range(2))),
            RestrictionMap(u2, ov, Projection(range(2))),
        ]
    elif variant == "counts":
        stalks = {u1: sp.euclidean(6), u2: sp.euclidean(8),
                  ov: sp.euclidean(4)}
        restrictions = [
            RestrictionMap(u1, ov, Projection(range(4))),
            RestrictionMap(u2, ov, Linear(COIN_COUNTING_MATRIX)),
        ]
    elif variant == "value":
        value_row = [list(COIN_VALUES_CENTS) + [0.0, 0.0]]
        value_of_detections = [[
            sum(COIN_VALUES_CENTS[k] * COIN_COUNTING_MATRIX[k][j]
                for k in range(4))
            for j in range(8)
        ]]
        stalks = {u1: sp.euclidean(6), u2: sp.euclidean(8),
                  ov: sp.euclidean(1)}
        restrictions = [
            RestrictionMap(u1, ov, Linear(value_row)),
            RestrictionMap(u2, ov, Linear(value_of_detections)),
        ]
    else:
        raise ValueError(f"unknown coin sheaf variant {variant!r}")
    return Sheaf(t, stalks, restrictions)
