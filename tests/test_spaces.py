import math
import random

import pytest

from oracles import distance, great_circle_km, reference_dist
from sheaffuse import (
    circle,
    discrete,
    euclidean,
    geo2d,
    geo3d,
    make_point,
    product,
    sample_point,
    simplex,
    time_line,
)
from sheaffuse.errors import SpaceMismatch
from sheaffuse.spaces import ValueSpace, factor_distances

ALL_KINDS = [
    euclidean(3),
    euclidean(2, weight=2.5),
    circle(),
    circle(weight=7.85),
    geo2d(),
    geo3d(weight=0.43),
    time_line(weight=10.0),
    discrete(["red", "green", "blue"]),
    simplex(4),
    product([euclidean(2), circle(), time_line()]),
    product([geo2d(weight=0.5), simplex(3)]),
]


def test_circle_wraparound():
    s = circle()
    a = make_point(s, [359.0])
    b = make_point(s, [1.0])
    assert distance(s, a, b) == pytest.approx(2.0, abs=1e-12)


def test_circle_coordinates_normalized():
    s = circle()
    assert make_point(s, [-30.0]).coords == (330.0,)
    assert make_point(s, [725.0]).coords == (5.0,)


def test_geo2d_against_independent_great_circle():
    # the two radio stations of the search scenario
    w2sz = (73.662574, 42.7338328)
    au = (77.0897374, 38.9352387)
    s = geo2d()
    d = distance(s, make_point(s, w2sz), make_point(s, au))
    expected = great_circle_km(w2sz[0], w2sz[1], au[0], au[1])
    assert d == pytest.approx(expected, rel=1e-9)


def test_geo3d_adds_altitude_in_quadrature():
    s = geo3d()
    a = make_point(s, (70.0, 42.0, 0.0))
    b = make_point(s, (70.0, 42.0, 3000.0))
    assert distance(s, a, b) == pytest.approx(3.0, abs=1e-12)
    c = make_point(s, (70.0, 43.0, 4000.0))
    ground = great_circle_km(70.0, 42.0, 70.0, 43.0)
    assert distance(s, a, c) == pytest.approx(math.hypot(ground, 4.0),
                                              rel=1e-9)


def test_discrete_metric():
    s = discrete(["p", "q"])
    a, b = make_point(s, [0]), make_point(s, [1])
    assert distance(s, a, a) == 0.0
    assert distance(s, a, b) == 1.0


def test_simplex_total_variation():
    s = simplex(3)
    a = make_point(s, [1.0, 0.0, 0.0])
    b = make_point(s, [0.0, 0.5, 0.5])
    assert distance(s, a, b) == pytest.approx(1.0, abs=1e-12)


def test_simplex_validation():
    s = simplex(2)
    with pytest.raises(SpaceMismatch):
        make_point(s, [0.7, 0.7])
    with pytest.raises(SpaceMismatch):
        make_point(s, [-0.2, 1.2])


def test_product_flattens_and_takes_max():
    p = product([euclidean(2), product([circle(), time_line()])])
    assert p.dim == 4
    assert all(c.kind != "product" for c in p.components)
    a = make_point(p, (0.0, 0.0, 10.0, 0.0))
    b = make_point(p, (3.0, 4.0, 20.0, 1.0))
    assert distance(p, a, b) == pytest.approx(10.0)


def test_product_distance_keeps_nan():
    """Restricted coordinates are not checked for finiteness, so a NaN
    in one component must reach the caller, whatever the other gives."""
    from sheaffuse.spaces import coord_distance

    p = product([euclidean(1), euclidean(1)])
    for a in [(math.nan, 0.0), (5.0, math.nan), (math.nan, 5.0)]:
        assert math.isnan(coord_distance(p, a, (0.0, 0.0)))


@pytest.mark.parametrize("space", ALL_KINDS)
def test_factors_tile_the_coordinates(space):
    """The factor slices run through 0..dim in order; a product's
    factors are its components, any other space's only factor is
    itself."""
    factors = space.factors
    assert [lo for _, lo, _ in factors] == \
        [0] + [hi for _, _, hi in factors[:-1]]
    assert factors[-1][2] == space.dim
    assert all(hi - lo == c.dim for c, lo, hi in factors)
    if space.kind == "product":
        assert tuple(c for c, _, _ in factors) == space.components
    else:
        assert factors == ((space, 0, space.dim),)


def test_product_of_one_space_is_that_space():
    e = euclidean(3)
    assert product([e]) is e


def test_product_dominates_components():
    rng = random.Random(5)
    p = product([euclidean(2, weight=2.0), circle(weight=3.0), time_line()])
    for _ in range(200):
        a, b = sample_point(p, rng), sample_point(p, rng)
        d = distance(p, a, b)
        off = 0
        for comp in p.components:
            slice_a = make_point(comp, a.coords[off:off + comp.dim])
            slice_b = make_point(comp, b.coords[off:off + comp.dim])
            assert distance(comp, slice_a, slice_b) <= d + 1e-12
            off += comp.dim


def test_space_mismatch_detected():
    a = make_point(euclidean(2), (0.0, 0.0))
    with pytest.raises(SpaceMismatch):
        distance(euclidean(3), a, a)
    with pytest.raises(SpaceMismatch):
        make_point(euclidean(3), (0.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_rejected(bad):
    for space in (euclidean(2), product([circle(), time_line()])):
        with pytest.raises(SpaceMismatch, match="finite"):
            make_point(space, (0.0, bad))


@pytest.mark.parametrize("space", ALL_KINDS,
                         ids=[s.describe() for s in ALL_KINDS])
def test_pseudometric_axioms(space):
    rng = random.Random(hash(space.describe()) & 0xFFFF)
    for _ in range(100):
        x = sample_point(space, rng)
        y = sample_point(space, rng)
        z = sample_point(space, rng)
        assert distance(space, x, x) <= 1e-9
        dxy = distance(space, x, y)
        assert dxy >= 0.0
        assert abs(dxy - distance(space, y, x)) <= 1e-9
        assert distance(space, x, z) <= dxy + distance(space, y, z) + 1e-9


# every kind, each also weighted 0 and -0.0, and a product of them all
METRIC_SPACES = ALL_KINDS + [
    make(weight=w) for w in (0.0, -0.0)
    for make in (lambda weight: euclidean(2, weight), circle, geo2d, geo3d,
                 time_line, lambda weight: discrete("ab", weight),
                 lambda weight: simplex(3, weight))
] + [product([euclidean(1), circle(2.0), geo2d(), geo3d(0.5), time_line(),
              discrete("xyz"), simplex(2)])]


def metric_pairs(space, rng):
    """Random coordinate pairs for a space: sampled points; raw angles
    either side of 0/360 and outside [0, 360), as restriction maps may
    give; altitudes far apart; equal and NaN coordinates."""
    pairs = []
    for _ in range(40):
        a, b = (list(sample_point(space, rng).coords) for _ in range(2))
        pairs.append((a, b))
        for i, circular in enumerate(space.circular_mask):
            if circular:
                a[i], b[i] = rng.uniform(355.0, 365.0), rng.uniform(-5.0, 5.0)
        pairs.append((a, list(b)))
        pairs.append((a, list(a)))
        b = list(a)
        for c, lo, _ in space.factors:
            if c.kind == "geo3d":
                b[lo + 2] = rng.uniform(-5e4, 5e4)
        pairs.append((a, b))
        b = list(b)
        b[rng.randrange(space.dim)] = math.nan
        pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("space", METRIC_SPACES,
                         ids=[f"{s.describe()}|{s.weight!r}"
                              for s in METRIC_SPACES])
def test_compiled_metrics_are_the_reference_bit_for_bit(space):
    rng = random.Random(space.describe())
    for a, b in metric_pairs(space, rng):
        got = [d.hex() for d in factor_distances(space, a, b)]
        want = [reference_dist(c, a, b, lo).hex()
                for c, lo, _ in space.factors]
        assert got == want, (a, b)


def test_compiled_metric_of_an_unknown_kind_raises():
    space = ValueSpace("warp", 1)
    assert len(space.metrics) == 1
    for run in (lambda: factor_distances(space, (0.0,), (1.0,)),
                lambda: reference_dist(space, (0.0,), (1.0,), 0)):
        with pytest.raises(SpaceMismatch, match="unknown space kind 'warp'"):
            run()
