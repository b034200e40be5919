import random

import numpy as np
import pytest

from conftest import camera_chain_sheaf, random_linear_sheaf, with_native_union
from oracles import all_pairs_radius, max_common_distance
from sheaffuse import (
    Assignment,
    EntityUniverse,
    Identity,
    Linear,
    Projection,
    RestrictionMap,
    Sheaf,
    assignment_distance,
    complete_unions,
    consistency_radius,
    distance,
    euclidean,
    generate_topology,
    is_epsilon_approximate,
    lipschitz_bound,
    make_point,
    pullback_global,
    sample_point,
    simplex,
)
from sheaffuse.errors import SheafMismatch, SpaceMismatch
from sheaffuse.scenarios import (
    SarParameters,
    build_sar_sheaf,
    sar_case_assignment,
)


def chain_sheaf(values_dim=1):
    """Two nested opens with identity restriction."""
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid, top = t.open_for(["a"]), t.full
    sh = complete_unions(Sheaf(
        t, {mid: euclidean(values_dim), top: euclidean(values_dim)},
        [RestrictionMap(top, mid, Identity())],
    ))
    return sh, mid, top


def test_assignment_rejects_wrong_space():
    sh, mid, top = chain_sheaf()
    a = Assignment(sh)
    with pytest.raises(SpaceMismatch):
        a.set(mid, make_point(euclidean(2), (0.0, 0.0)))


def test_assignment_distance_trivial_and_single_component():
    sh, mid, top = chain_sheaf()
    a = Assignment(sh, {mid: make_point(sh.stalk(mid.id), [1.0])})
    assert assignment_distance(a, a) == 0.0
    b = Assignment(sh, {mid: make_point(sh.stalk(mid.id), [4.0])})
    assert assignment_distance(a, b) == pytest.approx(3.0)
    # no common opens -> distance 0
    c = Assignment(sh, {top: make_point(sh.stalk(top.id), [9.0])})
    assert assignment_distance(a, c) == 0.0


def test_assignment_distance_requires_same_sheaf():
    sh1, mid, _ = chain_sheaf()
    sh2, mid2, _ = chain_sheaf()
    a = Assignment(sh1, {mid: make_point(sh1.stalk(mid.id), [0.0])})
    b = Assignment(sh2, {mid2: make_point(sh2.stalk(mid2.id), [0.0])})
    with pytest.raises(SheafMismatch):
        assignment_distance(a, b)


def test_assignment_distance_matches_max_loop_oracle():
    rng = random.Random(47)
    for _ in range(50):
        sh = random_linear_sheaf(rng)
        ids = [o.id for o in sh.topology.opens if o.mask]
        a, b = Assignment(sh), Assignment(sh)
        for oid in ids:
            if rng.random() < 0.7:
                a.values[oid] = sample_point(sh.stalk(oid), rng)
            if rng.random() < 0.7:
                b.values[oid] = sample_point(sh.stalk(oid), rng)
        expected = max_common_distance(
            a.values, b.values,
            lambda oid, x, y: distance(sh.stalk(oid), x, y),
        )
        assert assignment_distance(a, b) == pytest.approx(expected)


def test_two_open_chain_radius_by_hand():
    sh, mid, top = chain_sheaf()
    a = Assignment(sh, {
        top: make_point(sh.stalk(top.id), [0.0]),
        mid: make_point(sh.stalk(mid.id), [3.0]),
    })
    result = consistency_radius(a)
    assert result.radius == pytest.approx(3.0)
    assert result.edges[0].smaller.members == ("a",)


@pytest.mark.parametrize("stalk, body", [
    (euclidean(2), Projection([0, 1, 1])),
    (euclidean(2), Projection([0])),
    (simplex(2), Linear([[1.0, 1.0], [1.0, 1.0]])),
], ids=["too-long", "too-short", "off-simplex"])
def test_radius_rejects_restriction_leaving_the_stalk(stalk, body):
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid, top = t.open_for(["a"]), t.full
    sh = complete_unions(Sheaf(
        t, {top: simplex(2), mid: stalk},
        [RestrictionMap(top, mid, body)],
    ))
    a = Assignment(sh, {
        top: make_point(sh.stalk(top.id), [0.5, 0.5]),
        mid: make_point(stalk, [0.5, 0.5]),
    })
    with pytest.raises(SpaceMismatch):
        consistency_radius(a)


def test_empty_assignment_radius_zero():
    sh, _, _ = chain_sheaf()
    result = consistency_radius(Assignment(sh))
    assert result.radius == 0.0
    assert result.edges == []


def test_partial_assignment_skips_undefined_pairs():
    sh, mid, top = chain_sheaf()
    a = Assignment(sh, {top: make_point(sh.stalk(top.id), [5.0])})
    assert consistency_radius(a).radius == 0.0


def test_pullback_of_global_section_has_zero_radius():
    rng = random.Random(53)
    sh = build_sar_sheaf()
    space = sh.stalk(sh.topology.full.id)
    for _ in range(100):
        s = make_point(space, (
            rng.uniform(60, 80), rng.uniform(38, 48), rng.uniform(0, 15000),
            rng.uniform(-600, 600), rng.uniform(-600, 600),
            rng.uniform(0.1, 2.0),
        ))
        a = pullback_global(sh, s)
        assert consistency_radius(a).radius <= 1e-9


def test_pullback_round_trip_at_top():
    sh, mid, top = chain_sheaf()
    s = make_point(sh.stalk(top.id), [2.5])
    a = pullback_global(sh, s)
    assert a.get(top).coords == s.coords
    # a 0-approximate assignment is reproduced by pulling back its
    # top value
    again = pullback_global(sh, a.get(top))
    for oid in a.values:
        assert again.values[oid].coords == a.values[oid].coords


def test_radius_of_case_assignments_ordering():
    sh = build_sar_sheaf()
    radii = {
        c: consistency_radius(sar_case_assignment(sh, c)).radius
        for c in (1, 2, 3)
    }
    assert radii[3] > 3 * radii[1] > 0
    assert radii[1] > radii[2]


def test_radius_edges_match_point_level_distance():
    sh = build_sar_sheaf()
    for case in (1, 2, 3):
        a = sar_case_assignment(sh, case)
        for e in consistency_radius(a).edges:
            restricted = sh.restrict(e.larger, e.smaller, a.get(e.larger))
            assert e.error == distance(sh.stalk(e.smaller.id),
                                       a.get(e.smaller), restricted)


def test_is_epsilon_approximate():
    sh = build_sar_sheaf()
    a = sar_case_assignment(sh, 1)
    r = consistency_radius(a).radius
    assert is_epsilon_approximate(a, r + 1.0)
    assert not is_epsilon_approximate(a, r - 1.0)
    # under the default weights the case-1 radius sits between 10 and 20
    assert not is_epsilon_approximate(a, 10.0)
    assert is_epsilon_approximate(a, 20.0)
    assert is_epsilon_approximate(a, float("inf"))
    s = make_point(sh.stalk(sh.topology.full.id),
                   (70.0, 43.0, 11000.0, -495.0, 164.0, 0.9))
    assert is_epsilon_approximate(pullback_global(sh, s), 0.0)


def test_radius_scales_with_uniform_reweighting():
    lam = 3.0
    base = build_sar_sheaf()
    w = SarParameters().weights
    scaled = build_sar_sheaf(SarParameters(weights=type(w)(
        geo_km=w.geo_km * lam,
        bearing_km_per_deg=w.bearing_km_per_deg * lam,
        time_km_per_hour=w.time_km_per_hour * lam,
        velocity_km_per_kmh=w.velocity_km_per_kmh * lam,
    )))
    for case in (1, 2, 3):
        r0 = consistency_radius(sar_case_assignment(base, case)).radius
        r1 = consistency_radius(sar_case_assignment(scaled, case)).radius
        assert r1 == pytest.approx(lam * r0, rel=1e-9)


def test_lipschitz_bound_nonnegative_and_covers_norms():
    rng = random.Random(59)
    sh = random_linear_sheaf(rng)
    k = lipschitz_bound(sh)
    assert k >= 0.0
    from sheaffuse.topology import comparable_pairs

    for small, large in comparable_pairs(sh.topology):
        m = sh.restriction_matrix(large.id, small.id)
        if m.size:
            assert float(np.linalg.norm(m, 2)) <= k + 1e-9


def chain_snapshots(n, seed):
    """Random global sections of the camera chain plus noise on every
    basis open, drawn like the benchmark's chain snapshots."""
    sh = camera_chain_sheaf()
    top = sh.topology.full
    k = sh.kernel_basis(top.id)
    rng = np.random.default_rng(seed)
    for _ in range(n):
        truth = pullback_global(sh, make_point(
            sh.stalk(top.id), k @ rng.normal(0.0, 17.0, k.shape[1])))
        a = Assignment(sh)
        for b in sh.topology.basis:
            exact = np.asarray(truth.values[b.id].coords)
            a.set(b, make_point(sh.stalk(b.id),
                                exact + rng.normal(0.0, 0.5, len(exact))))
        yield a


def mixed_assignments(n, rng):
    """Random linear sheaves with one union given a stalk of its own,
    each with values on basis opens, that union and pullback opens
    outside it."""
    while n:
        sh = random_linear_sheaf(rng, n_entities=4, ensure_diamond=True)
        t = sh.topology
        pulled = [o for o in t.opens
                  if o.mask and sh.pullback(o.id) is not None]
        if not pulled:
            continue
        w = rng.choice(pulled)
        outside = [o for o in pulled if o.mask & w.mask != w.mask]
        if not outside:
            continue
        sh = with_native_union(sh, w.id)
        chosen = (rng.sample(t.basis, rng.randint(1, len(t.basis))) +
                  [w] + rng.sample(outside, rng.randint(1, len(outside))))
        yield Assignment(sh, {o: sample_point(sh.stalk(o.id), rng)
                              for o in chosen})
        n -= 1


def test_radius_edges_match_all_pairs_oracle():
    """Pairs of defined opens give the same edges, in the same order and
    with the same floats, as the walk over every comparable pair."""
    sar = build_sar_sheaf()
    cases = [sar_case_assignment(sar, c) for c in (1, 2, 3)]
    cases += chain_snapshots(20, 1)
    cases += mixed_assignments(40, random.Random(61))
    for a in cases:
        edges = consistency_radius(a).edges
        assert edges
        assert edges == all_pairs_radius(a)
