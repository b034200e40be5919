"""The reference routines in ``oracles.py`` that are checked on their
own: the library no longer has them, so these tests guard the
references that library code is compared with."""

import random

from conftest import nested_native_union, random_linear_sheaf, random_subbase
from oracles import (
    comparable_pairs,
    full_cover,
    reference_sub_topology,
    restrict_sheaf,
    subset_pairs,
)
from sheaffuse import Cover, EntityUniverse, betti, generate_topology
from sheaffuse.scenarios import (
    build_coin_sheaf,
    build_obstacle_sheaves,
    build_sar_sheaf,
)


def test_comparable_pairs_simple():
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    pairs = [(v.members, w.members) for v, w in comparable_pairs(t)]
    assert pairs == [(("a",), ("a", "b"))]


def test_comparable_pairs_includes_composites():
    u = EntityUniverse(["x", "y", "z", "vx", "vy", "t", "th1", "th2", "s"])
    t = generate_topology(u, [
        ("x", "y", "z"), ("x", "y", "z", "vx", "vy"), ("th1", "t"),
        ("th2", "t"), ("th1", "th2", "s"), tuple(u.names),
    ])
    got = {(v.mask, w.mask) for v, w in comparable_pairs(t)}
    t_mask = u.mask_of(["t"])
    u3 = u.mask_of(["th1", "t"])
    u34 = u.mask_of(["th1", "th2", "t"])
    assert (t_mask, u3) in got
    assert (t_mask, u34) in got


def test_comparable_pairs_matches_subset_scan():
    rng = random.Random(17)
    for _ in range(50):
        universe, subbase = random_subbase(rng, 5, 3)
        t = generate_topology(universe, subbase)
        got = {(v.mask, w.mask) for v, w in comparable_pairs(t)}
        assert got == set(subset_pairs([o.mask for o in t.opens]))


def test_restrict_sheaf_keeps_native_union_stalk():
    """W's stalk comes along with its edges, so the subsheaf on
    {e0,e1,e2} is the part of the sheaf inside it."""
    sh, w = nested_native_union()
    t = sh.topology
    top = t.open_for(["e0", "e1", "e2"])
    sub = restrict_sheaf(sh, top.mask)
    st = sub.topology
    sub_w = st.open_for(w.members)
    assert sub.stalks[sub_w.id] == sh.stalks[w.id]
    assert sub.is_linear()
    assert sub_w.id in sub.pullback(st.full.id).parts
    inside = Cover(tuple(o for o in t.opens
                         if o.mask and o.mask & top.mask == o.mask))
    assert betti(sub, full_cover(st), 2).betti == betti(sh, inside, 2).betti


def test_restricted_topology_matches_every_open_inside():
    """restrict_sheaf generates its topology from the basis opens inside
    the mask; it must have the same opens, in the same id order, as the
    one every open inside the mask generates."""
    mosaic, prob = build_obstacle_sheaves()
    rng = random.Random(23)
    sheaves = [build_sar_sheaf(), mosaic, prob,
               *(build_coin_sheaf(v) for v in ("mosaic", "counts", "value")),
               *(random_linear_sheaf(rng) for _ in range(50))]
    for sh in sheaves:
        for o in sh.topology.opens[1:]:
            want = reference_sub_topology(sh.topology, o.mask)
            got = restrict_sheaf(sh, o.mask).topology
            assert got.universe == want.universe
            assert [u.mask for u in got.opens] == \
                [u.mask for u in want.opens]
