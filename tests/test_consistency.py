import random

import numpy as np
import pytest

from conftest import (
    camera_chain_sheaf,
    nan_sheaf,
    nested_native_union,
    random_linear_sheaf,
    random_product_sheaf,
    with_native_union,
)
from oracles import all_pairs_radius, max_common_distance, pullback_every_open
from sheaffuse import (
    Assignment,
    Builtin,
    EntityUniverse,
    Identity,
    Linear,
    Projection,
    RestrictionMap,
    Sheaf,
    assignment_distance,
    consistency_radius,
    distance,
    euclidean,
    fuse,
    generate_topology,
    is_epsilon_approximate,
    lipschitz_bound,
    make_point,
    pullback_global,
    sample_point,
    simplex,
)
from sheaffuse.errors import SheafMismatch, SpaceMismatch
from sheaffuse.specio import load_assignment, save_assignment
from sheaffuse.scenarios import (
    SarParameters,
    build_coin_sheaf,
    build_obstacle_sheaves,
    build_sar_sheaf,
    sar_case_assignment,
)


def chain_sheaf(values_dim=1):
    """Two nested opens with identity restriction."""
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid, top = t.open_for(["a"]), t.full
    sh = Sheaf(
        t, {mid: euclidean(values_dim), top: euclidean(values_dim)},
        [RestrictionMap(top, mid, Identity())],
    )
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
    sh = Sheaf(
        t, {top: simplex(2), mid: stalk},
        [RestrictionMap(top, mid, body)],
    )
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


def assert_same_values(got, want):
    """The same opens, each with the same coordinates and stalk."""
    assert got.values.keys() == want.values.keys()
    for oid, point in want.values.items():
        assert got.values[oid].coords == point.coords, oid
        assert got.values[oid].space == point.space, oid


def assert_same_as_every_open(sh, s):
    """``pullback_global`` gives exactly the restriction to every open
    in turn.  Returns how many opens below the whole space are unions of
    two or more parts, whose values depend on the order of the parts."""
    assert_same_values(pullback_global(sh, s), pullback_every_open(sh, s))
    top = sh.topology.full.id
    return sum(1 for u in sh.topology.opens
               if u.mask and u.id != top and sh.pullback(u.id) is not None
               and len(sh.pullback(u.id).parts) > 1)


def test_pullback_matches_every_open_on_sar_fused_sections():
    sh = build_sar_sheaf()
    for case in (1, 2, 3):
        res = fuse(sar_case_assignment(sh, case))
        assert_same_values(res.fused,
                           pullback_every_open(sh, res.section_at_top))
        assert assert_same_as_every_open(sh, res.section_at_top) > 0


def test_pullback_matches_every_open_on_random_sheaves():
    rng = random.Random(61)
    unions = 0
    for _ in range(12):
        for include_full in (True, False):
            sh = random_linear_sheaf(rng, n_entities=4,
                                     include_full=include_full)
            top = sh.topology.full.id
            unions += assert_same_as_every_open(
                sh, sh.sample_stalk(top, rng))
    sh, _ = nested_native_union()
    unions += assert_same_as_every_open(
        sh, sh.sample_stalk(sh.topology.full.id, rng))
    assert unions > 0


def test_pullback_matches_every_open_on_circle_and_simplex_stalks():
    rng = random.Random(67)
    kinds = set()
    unions = 0
    for _ in range(24):
        sh = random_product_sheaf(rng)
        kinds |= {c.kind for space in sh.stalks.values()
                  for c, _, _ in space.factors}
        unions += assert_same_as_every_open(
            sh, sample_point(sh.stalk(sh.topology.full.id), rng))
    assert {"circle", "simplex"} <= kinds
    assert unions > 0


def test_pullback_matches_every_open_on_scenario_sheaves():
    rng = random.Random(71)
    sheaves = list(build_obstacle_sheaves()) + [
        build_coin_sheaf(v) for v in ("mosaic", "counts", "value")]
    for sh in sheaves:
        assert_same_as_every_open(
            sh, sh.sample_stalk(sh.topology.full.id, rng))


def test_pullback_matches_every_open_on_an_eight_camera_chain():
    sh = camera_chain_sheaf(cameras=8)
    top = sh.topology.full
    assert len(sh.topology.opens) == 1597
    k = sh.kernel_basis(top.id)
    rng = np.random.default_rng(3)
    s = make_point(sh.stalk(top.id), k @ rng.normal(0.0, 17.0, k.shape[1]))
    assert assert_same_as_every_open(sh, s) > 1000


def test_pullback_restricts_once_per_native_open(monkeypatch):
    calls = []
    original = Sheaf.restrict_coords

    def spy(self, src, dst, coords):
        calls.append((src, dst))
        return original(self, src, dst, coords)

    monkeypatch.setattr(Sheaf, "restrict_coords", spy)
    rng = random.Random(73)
    nested, _ = nested_native_union()
    for sh in (camera_chain_sheaf(), nested):
        top = sh.topology.full.id
        s = sh.sample_stalk(top, rng)
        native = set(sh.native_ids())
        calls.clear()
        pullback_global(sh, s)
        assert len(calls) == len(set(calls))
        assert {src for src, _ in calls} <= {top}
        assert {dst for _, dst in calls} <= native - {top}
        # the walk over every open restricts to the unions too
        calls.clear()
        pullback_every_open(sh, s)
        assert {dst for _, dst in calls} - native


@pytest.mark.parametrize("stalk, image", [
    (euclidean(1), lambda coords: (float("nan"),)),
    (simplex(2), lambda coords: (0.5, 0.6)),
], ids=["nan", "off-simplex"])
def test_pullback_raises_as_every_open_does(stalk, image):
    """A builtin edge into {b} gives an invalid value; {b} lies inside
    the unions {a,b} and {b,c}, which are pullbacks."""
    u = EntityUniverse(["a", "b", "c"])
    t = generate_topology(u, [("a",), ("b",), ("c",)])
    a, b, c = (t.open_for([n]) for n in "abc")
    sh = Sheaf(t, {t.full: euclidean(1), a: euclidean(1), b: stalk,
                   c: euclidean(1)},
               [RestrictionMap(t.full, a, Identity()),
                RestrictionMap(t.full, b, Builtin("bad", image)),
                RestrictionMap(t.full, c, Identity())])
    s = make_point(sh.stalk(t.full.id), [1.0])
    with pytest.raises(SpaceMismatch) as got:
        pullback_global(sh, s)
    with pytest.raises(SpaceMismatch) as want:
        pullback_every_open(sh, s)
    assert str(got.value) == str(want.value)


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


def test_lipschitz_bound_needs_more_than_the_native_pairs():
    """R on the whole space of {a,b,c} and on {a} and {b}, with identity
    edges: the restriction to the union {a,b} stacks both identities and
    has norm sqrt(2), while every restriction between native opens has
    norm 1, so the bound cannot be read off the native pairs alone."""
    t = generate_topology(EntityUniverse(["a", "b", "c"]), [("a",), ("b",)])
    a, b = t.open_for(["a"]), t.open_for(["b"])
    sh = Sheaf(t, {t.full: euclidean(1), a: euclidean(1), b: euclidean(1)},
               [RestrictionMap(t.full, a, Identity()),
                RestrictionMap(t.full, b, Identity())])
    native = sh.native_ids()
    opens = t.opens
    assert max(float(np.linalg.norm(sh.restriction_matrix(big, small), 2))
               for big in native for small in native
               if opens[small].mask & opens[big].mask == opens[small].mask
               ) == 1.0
    assert lipschitz_bound(sh) == pytest.approx(2 ** 0.5, abs=1e-12)


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
    each with values on basis opens (one inside that union at least),
    that union and other unions, those around it included."""
    while n:
        sh = random_linear_sheaf(rng, n_entities=4, ensure_diamond=True)
        t = sh.topology
        pulled = [o for o in t.opens
                  if o.mask and sh.pullback(o.id) is not None]
        if not pulled:
            continue
        w = rng.choice(pulled)
        inner = [b for b in t.basis if b.mask & w.mask == b.mask]
        sh = with_native_union(sh, w.id)
        chosen = (rng.sample(t.basis, rng.randint(1, len(t.basis))) +
                  [rng.choice(inner), w] +
                  rng.sample(pulled, rng.randint(1, len(pulled))))
        yield Assignment(sh, {o: sample_point(sh.stalk(o.id), rng)
                              for o in chosen})
        n -= 1


def test_radius_raises_on_nan_edge():
    """A NaN distance does not vanish from the maximum next to the
    finite edge on {b}."""
    sh = nan_sheaf([])
    t = sh.topology
    a = Assignment(sh, {o: make_point(sh.stalk(o.id), [1.0])
                        for o in t.opens if o.mask})
    with pytest.raises(SpaceMismatch,
                       match=r"on \{a\} to the restriction from \{a,b\}"):
        consistency_radius(a)


def test_radius_raises_on_an_overflowing_edge():
    """Finite readings 2e308 apart overflow their distance; the radius
    names the pair instead of reporting inf."""
    sh, mid, top = chain_sheaf()
    a = Assignment(sh, {mid: make_point(sh.stalk(mid.id), [-1e308]),
                        top: make_point(sh.stalk(top.id), [1e308])})
    with pytest.raises(SpaceMismatch, match=r"on \{a\} to the restriction "
                                            r"from \{a,b\} is infinite"):
        consistency_radius(a)


def test_value_on_the_empty_open_changes_nothing(tmp_path):
    """The empty open's single point () is checked and dropped: the
    radius and the fuse of SAR case 1 and of a chain snapshot come out
    the same with it, and the CSV round trip keeps every other value."""
    for a in (sar_case_assignment(build_sar_sheaf(), 1),
              next(chain_snapshots(1, 1))):
        sh, empty = a.sheaf, a.sheaf.topology.empty
        with_empty = Assignment(sh, a.values)
        with_empty.set(empty, make_point(sh.stalk(empty.id), ()))
        assert with_empty.values == a.values
        assert consistency_radius(with_empty) == consistency_radius(a)
        got, want = fuse(with_empty), fuse(a)
        assert ((got.section_at_top.coords, got.residual, got.iterations,
                 got.evaluations, got.dual_bound) ==
                (want.section_at_top.coords, want.residual, want.iterations,
                 want.evaluations, want.dual_bound))
        path = tmp_path / "values.csv"
        save_assignment(path, with_empty)
        again = load_assignment(path, sh)
        assert {oid: p.coords for oid, p in again.values.items()} == \
            {oid: p.coords for oid, p in a.values.items()}


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
