import json
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    camera_chain_sheaf,
    nested_native_union,
    random_linear_sheaf,
    random_product_sheaf,
    with_corrupted_edge,
    with_native_union,
)
from oracles import (
    agreement_dim,
    all_pairs_gluing,
    comparable_pairs,
    edge_path_functoriality,
    reference_ambient_matrix,
    reference_basis_chain,
    reference_restrict_coords,
    sample_stalk,
)
from sheaffuse import (
    Affine,
    Builtin,
    Chain,
    EntityUniverse,
    Identity,
    Linear,
    Projection,
    RestrictionMap,
    Sheaf,
    complete_unions,
    euclidean,
    generate_topology,
    make_point,
    sample_point,
    verify_functoriality,
    verify_gluing,
)
from sheaffuse.errors import (
    MissingIntersectionStalk,
    NonlinearSheaf,
    NotComparable,
    SpaceMismatch,
)
from sheaffuse.cohomology import lift_sheaf, uniform_grid
from sheaffuse.scenarios import (
    SAR_CASES,
    build_coin_sheaf,
    build_obstacle_sheaves,
    build_sar_sheaf,
    sar_lift_ranges,
)
from sheaffuse.sheaf import BUILTIN_CATALOG, batch_call, register_builtin
from sheaffuse.specio import (
    SpecError,
    body_from_json,
    load_sheaf,
    save_sheaf,
)
from sheaffuse.topology import Topology


def test_restrict_identity():
    sh = build_sar_sheaf()
    t = sh.topology
    space = sh.stalk(t.full.id)
    v = make_point(space, (70.0, 43.0, 11000.0, -495.0, 164.0, 0.9))
    assert sh.restrict(t.full, t.full, v) is not None
    assert sh.restrict(t.full, t.full, v).coords == v.coords


def test_restrict_requires_inclusion_and_matching_space():
    sh = build_sar_sheaf()
    t = sh.topology
    u3 = t.open_for(["theta1", "t"])
    u4 = t.open_for(["theta2", "t"])
    p = make_point(sh.stalk(u3.id), (90.0, 1.0))
    with pytest.raises(NotComparable):
        sh.restrict(u3, u4, p)
    with pytest.raises(SpaceMismatch):
        sh.restrict(t.full, u3, p)


def test_restrict_to_the_empty_open_gives_its_single_point():
    """From the top of SAR, and from every native open, the image in
    the empty open's R^0 is its one point ()."""
    sh = build_sar_sheaf()
    t = sh.topology
    empty = sh.stalk(t.empty.id)
    top = make_point(sh.stalk(t.full.id),
                     (70.0, 43.0, 11000.0, -495.0, 164.0, 0.9))
    got = sh.restrict(t.full, t.empty, top)
    assert got.space == empty and got.coords == ()
    assert sh.ambient_matrix(t.full.id, t.empty.id).shape == (0, 6)
    rng = random.Random(139)
    for oid in sh.native_ids():
        p = sample_point(sh.stalk(oid), rng)
        assert sh.restrict(oid, t.empty, p).coords == ()


def test_dead_reckoning_restriction_reproduces_reference_estimates():
    """The kinematic map applied to the recorded field values lands on the
    recorded crash estimates for all three cases, within 0.02 deg."""
    sh = build_sar_sheaf()
    t = sh.topology
    u5 = t.open_for(["theta1", "theta2", "s"])
    expected = {1: (65.0013, 44.1277), 2: (64.2396, 44.3721),
                3: (65.3745, 45.6703)}
    for case, (lon, lat) in expected.items():
        f = SAR_CASES[case]["field"]
        state = make_point(sh.stalk(t.full.id),
                           (f["x"], f["y"], f["z"], f["vx"], f["vy"], f["t"]))
        got = sh.restrict(t.full, u5, state)
        assert got.coords[0] == pytest.approx(lon, abs=0.02)
        assert got.coords[1] == pytest.approx(lat, abs=0.02)


def test_two_paths_agree_on_shared_time():
    sh = build_sar_sheaf()
    t = sh.topology
    u34 = t.open_for(["theta1", "theta2", "t"])
    time_open = t.open_for(["t"])
    rng = random.Random(3)
    for _ in range(20):
        p = sample_stalk(sh, u34.id, rng)
        via_u3 = sh.restrict_coords(
            u34.id, t.open_for(["theta1", "t"]).id, p.coords)
        via_u4 = sh.restrict_coords(
            u34.id, t.open_for(["theta2", "t"]).id, p.coords)
        t_a = sh.restrict_coords(t.open_for(["theta1", "t"]).id,
                                 time_open.id, via_u3)
        t_b = sh.restrict_coords(t.open_for(["theta2", "t"]).id,
                                 time_open.id, via_u4)
        assert t_a[0] == pytest.approx(t_b[0], abs=1e-9)


def test_sample_stalk_on_a_constrained_union_of_a_nonlinear_sheaf():
    """s+t+theta1+theta2 is the pullback of parts that overlap on theta1,
    which bearing_of_detection reaches, so the agreement subspace has no
    kernel basis: a sample is a sample of the whole space, which has a
    stalk of its own, restricted to the union."""
    sh = build_sar_sheaf()
    t = sh.topology
    union = t.open_for(["s", "t", "theta1", "theta2"])
    assert sh.pullback(union.id).constraints
    with pytest.raises(NonlinearSheaf):
        sh.kernel_basis(union.id)
    for seed in range(5):
        got = sample_stalk(sh, union.id, random.Random(seed))
        whole = sample_point(sh.stalk(t.full.id), random.Random(seed))
        assert got.space == sh.stalk(union.id)
        assert got.coords == tuple(
            sh.restrict_coords(t.full.id, union.id, whole.coords))


def test_functoriality_passes_on_reference_sheaf():
    report = verify_functoriality(build_sar_sheaf(), samples=32)
    assert report.ok
    assert report.max_discrepancy <= 1e-9


@pytest.mark.parametrize("samples", [0, -3])
def test_functoriality_refuses_fewer_than_one_sample(samples):
    """Nonlinear pairs compared on no points would pass unchecked."""
    with pytest.raises(ValueError, match="samples must be at least 1"):
        verify_functoriality(build_sar_sheaf(), samples=samples)


def test_functoriality_catches_corrupted_projection():
    sh = build_sar_sheaf()
    t = sh.topology
    u3 = t.open_for(["theta1", "t"])
    time_open = t.open_for(["t"])
    # swap the time projection for the bearing coordinate
    edges = dict(sh.edges)
    edges[(u3.id, time_open.id)] = RestrictionMap(
        u3, time_open, Projection([0])
    )
    report = verify_functoriality(Sheaf(t, sh.stalks, edges.values()),
                                  samples=32)
    assert not report.ok
    assert report.witnesses


def projection_sheaf(past_end=False):
    """R^6 on the whole space of {a,b,c,d}, projected onto runs to R^3 on
    {a,b} and {c,d}; from there a reordered projection to {a}, a linear
    map to {b}, a reordered projection from the last coordinate to {c}
    and the identity to {d}.  With ``past_end`` the projection to {a}
    reads one coordinate past the end of {a,b}'s stalk, which ``Sheaf``
    refuses."""
    u = EntityUniverse(["a", "b", "c", "d"])
    t = generate_topology(u, [("a", "b"), ("c", "d"), ("a",), ("b",),
                              ("c",), ("d",)])
    ab, cd = t.open_for(["a", "b"]), t.open_for(["c", "d"])
    a, b, c, d = (t.open_for([n]) for n in "abcd")
    stalks = {t.full: euclidean(6), ab: euclidean(3), cd: euclidean(3),
              a: euclidean(2), b: euclidean(1), c: euclidean(2),
              d: euclidean(3)}
    return Sheaf(t, stalks, [
        RestrictionMap(t.full, ab, Projection([1, 2, 3])),
        RestrictionMap(t.full, cd, Projection([3, 4, 5])),
        RestrictionMap(ab, a, Projection([2, 3] if past_end else [1, 0])),
        RestrictionMap(ab, b, Linear([[1.0, -2.0, 0.5]])),
        RestrictionMap(cd, c, Projection([2, 0])),
        RestrictionMap(cd, d, Identity()),
    ])


def restriction_fixtures(rng, linear, products):
    """The six packaged sheaves, the camera chain, ``projection_sheaf``,
    ``linear`` random linear sheaves each also rebuilt on its covering
    edges alone, given in reverse order, and ``products`` random product
    sheaves.  A random sheaf has an edge for every comparable pair of
    basis opens, so only the rebuilt ones have chains through several
    edges, where equal lengths tie."""
    sheaves = [build_sar_sheaf(), *build_obstacle_sheaves(),
               *(build_coin_sheaf(v) for v in ("mosaic", "counts", "value")),
               camera_chain_sheaf(), projection_sheaf()]
    for _ in range(linear):
        sh = random_linear_sheaf(rng)
        opens = sh.topology.opens

        def inside(x, y):
            return x != y and opens[x].mask & opens[y].mask == opens[x].mask

        covering = [rm for (a, b), rm in sh.edges.items()
                    if not any(inside(c, a) and inside(b, c)
                               for c in sh.stalks)]
        sheaves += [sh, Sheaf(sh.topology, sh.stalks, covering[::-1])]
    return sheaves + [random_product_sheaf(rng) for _ in range(products)]


def first_unjoined(sh):
    """The per-pair search's NotComparable text for the first pair, by
    source id and then target id, of nonempty opens with a stalk, the
    target inside the source, that no edge path joins; None when every
    such pair is joined."""
    t = sh.topology
    native = [oid for oid in sorted(sh.stalks) if t.opens[oid].mask]
    for src in native:
        for dst in native:
            if t.opens[dst].mask & t.opens[src].mask == t.opens[dst].mask:
                try:
                    reference_basis_chain(sh, src, dst)
                except NotComparable as exc:
                    return str(exc)
    return None


def test_chains_built_with_the_sheaf_match_the_per_pair_search():
    """Between every ordered pair of opens with a stalk, the empty open
    included, the sheaf's chain is the path a breadth-first search per
    pair finds, and there is none where it finds none.  With one edge
    dropped, a sheaf is built exactly when the search still joins every
    such pair of nonempty opens, the target inside the source, and
    otherwise raises the search's NotComparable for the first pair."""
    rng = random.Random(41)
    outcomes = set()
    for sh in restriction_fixtures(random.Random(23), 400, 100):
        for src in sh.stalks:
            for dst in sh.stalks:
                try:
                    want = reference_basis_chain(sh, src, dst)
                except NotComparable:
                    assert (src, dst) not in sh._chains
                    continue
                got = sh._chains[src, dst]
                assert (got.path, got.bodies) == (want.path, want.bodies)
        kept = list(sh.edges.values())
        if not kept:
            continue
        del kept[rng.randrange(len(kept))]
        pruned = SimpleNamespace(
            topology=sh.topology, stalks=sh.stalks,
            edges={(rm.source.id, rm.target.id): rm for rm in kept})
        want = first_unjoined(pruned)
        outcomes.add(want is None)
        if want is None:
            Sheaf(sh.topology, sh.stalks, kept)
            continue
        with pytest.raises(NotComparable) as got:
            Sheaf(sh.topology, sh.stalks, kept)
        assert str(got.value) == want
    assert outcomes == {True, False}


def test_functoriality_vacuous_on_single_chain():
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid, top = t.open_for(["a"]), t.full
    sh = Sheaf(
        t, {top: euclidean(2), mid: euclidean(1)},
        [RestrictionMap(top, mid, Projection([0]))],
    )
    report = verify_functoriality(sh, samples=8)
    assert report.ok
    assert report.checked_pairs == 0


def shortcut_sheaf():
    """R^1 on every basis open of the subbase {e0,e1}, {e0,e2}, X with
    identity maps, except the direct edge X -> {e0}, which doubles: the
    path X -> {e0,e1} -> {e0} disagrees with it."""
    u = EntityUniverse(["e0", "e1", "e2"])
    t = generate_topology(u, [("e0", "e1"), ("e0", "e2"),
                              ("e0", "e1", "e2")])
    top, e0 = t.full, t.open_for(["e0"])
    u1, u2 = t.open_for(["e0", "e1"]), t.open_for(["e0", "e2"])
    return Sheaf(
        t, {b: euclidean(1) for b in t.basis},
        [RestrictionMap(top, u1, Identity()),
         RestrictionMap(top, u2, Identity()),
         RestrictionMap(top, e0, Linear([[2.0]])),
         RestrictionMap(u1, e0, Identity()),
         RestrictionMap(u2, e0, Identity())],
    )


def test_functoriality_checks_shortcut_edges():
    sh = shortcut_sheaf()
    t = sh.topology
    top, u1, e0 = t.full, t.open_for(["e0", "e1"]), t.open_for(["e0"])
    down = sh.restrict_coords(top.id, u1.id, (1.0,))
    assert sh.restrict_coords(u1.id, e0.id, down) == (1.0,)
    assert sh.restrict_coords(top.id, e0.id, (1.0,)) == (2.0,)
    report = verify_functoriality(sh)
    assert not report.ok
    assert report.max_discrepancy == pytest.approx(1.0)
    assert any(w.startswith(f"{top} -> ") and f"and {top} -> {e0} " in w
               for w in report.witnesses)
    assert edge_path_functoriality(sh) == (False, pytest.approx(1.0))


def lifted_sar(bins=2):
    sh = build_sar_sheaf()
    ranges = sar_lift_ranges()
    grids = {
        b.id: uniform_grid([lo for lo, _ in ranges[b.key()]],
                           [hi for _, hi in ranges[b.key()]], bins)
        for b in sh.topology.basis
    }
    return lift_sheaf(sh, grids)


def test_functoriality_reports_on_lifted_sar():
    """The lifted maps are stochastic matrices: compared exactly, with no
    points drawn into the simplex stalks."""
    sh = lifted_sar()
    t = sh.topology
    report = verify_functoriality(sh)
    assert not report.ok
    top, u5 = t.full, t.open_for(["theta1", "theta2", "s"])
    gaps = {}
    for name in ("theta1", "theta2"):
        lead = f"{top} -> {u5} -> {t.open_for([name])} and "
        hits = [w for w in report.witnesses if w.startswith(lead)]
        assert len(hits) == 1
        gaps[name] = float(hits[0].rsplit(" ", 1)[1])
    assert gaps == {"theta1": pytest.approx(0.296, abs=1e-3),
                    "theta2": pytest.approx(0.481, abs=1e-3)}
    assert report.checked_pairs == verify_functoriality(
        build_sar_sheaf()).checked_pairs == 3


def uniqueness_counterexample():
    """A union stalk with a direction no part sees: R^2 over two R^1
    parts that both read its first coordinate."""
    u = EntityUniverse(["e1", "e2", "e3"])
    t = generate_topology(u, [("e1", "e2"), ("e2", "e3"),
                              ("e1", "e2", "e3")])
    u1, u2 = t.open_for(["e1", "e2"]), t.open_for(["e2", "e3"])
    mid, top = t.open_for(["e2"]), t.full
    return Sheaf(
        t, {top: euclidean(2), u1: euclidean(1), u2: euclidean(1),
            mid: euclidean(1)},
        [RestrictionMap(top, u1, Linear([[1.0, 0.0]])),
         RestrictionMap(top, u2, Linear([[1.0, 0.0]])),
         RestrictionMap(u1, mid, Identity()),
         RestrictionMap(u2, mid, Identity())],
    )


def test_gluing_counterexample_uniqueness_failure():
    report = verify_gluing(uniqueness_counterexample())
    assert not report.ok
    assert report.checked_pairs == 1
    assert len(report.failures) == 1
    assert report.failures[0].startswith("uniqueness fails for {e1,e2,e3}")


def assert_verdicts_match_oracles(sh):
    """Both checkers agree with the brute-force oracles; the gluing
    verdict is compared on sheaves whose restrictions compose, since
    gluing presumes a presheaf."""
    functorial = verify_functoriality(sh).ok
    assert functorial == edge_path_functoriality(sh)[0]
    if not sh.is_linear():
        with pytest.raises(NonlinearSheaf):
            all_pairs_gluing(sh)
        with pytest.raises(NonlinearSheaf):
            verify_gluing(sh)
        return functorial, None
    glued = verify_gluing(sh).ok
    if functorial:
        assert glued == all_pairs_gluing(sh).ok
    return functorial, glued


def test_checkers_match_oracles_on_scenarios_and_counterexamples():
    named = {"sar": build_sar_sheaf(), "chain": camera_chain_sheaf(),
             "existence": existence_counterexample(),
             "uniqueness": uniqueness_counterexample(),
             "shortcut": shortcut_sheaf()}
    named.update(zip(("mosaic", "probability"), build_obstacle_sheaves()))
    for variant in ("mosaic", "counts", "value"):
        named[f"coins-{variant}"] = build_coin_sheaf(variant)
    verdicts = {name: assert_verdicts_match_oracles(sh)
                for name, sh in named.items()}
    assert verdicts.pop("sar") == (True, None)
    assert verdicts.pop("existence") == (True, False)
    assert verdicts.pop("uniqueness") == (True, False)
    assert verdicts.pop("shortcut") == (False, True)
    assert all(v == (True, True) for v in verdicts.values()), verdicts


def test_checkers_match_oracles_on_random_and_corrupted_sheaves():
    rng = random.Random(53)
    failed = {"functoriality": 0, "gluing": 0}
    for i in range(120):
        sh = random_linear_sheaf(rng, n_entities=rng.choice([3, 4]),
                                 ensure_diamond=i % 2 == 0)
        assert assert_verdicts_match_oracles(sh) == (True, True)
        if not sh.edges:
            continue
        functorial, glued = assert_verdicts_match_oracles(
            with_corrupted_edge(sh, rng))
        failed["functoriality"] += not functorial
        failed["gluing"] += functorial and not glued
    assert min(failed.values()) > 0, failed


def build_pair_sheaf(stalk_u1, stalk_u2, stalk_inter, body1, body2,
                     entities=("p", "q", "r")):
    """Two overlapping opens plus their union and intersection."""
    u = EntityUniverse(entities)
    t = generate_topology(u, [entities[:2], entities[1:]])
    u1, u2 = t.open_for(entities[:2]), t.open_for(entities[1:])
    inter = t.open_for(entities[1:2])
    stalks = {u1: stalk_u1, u2: stalk_u2, inter: stalk_inter}
    restrictions = [RestrictionMap(u1, inter, body1),
                    RestrictionMap(u2, inter, body2)]
    return Sheaf(t, stalks, restrictions), t


def test_union_with_nested_parts_reuses_larger_stalk():
    """U1 inside U2 makes S(U1 v U2) literally S(U2)."""
    u = EntityUniverse(["x", "y"])
    t = generate_topology(u, [("x",), ("x", "y")])
    u1, u2 = t.open_for(["x"]), t.full
    sh = Sheaf(
        t, {u1: euclidean(1), u2: euclidean(3)},
        [RestrictionMap(u2, u1, Projection([0]))],
    )
    assert sh.stalk(u2.id).dim == 3


def test_union_of_disjoint_parts_is_plain_product():
    u = EntityUniverse(["a", "b", "c"])
    t = generate_topology(u, [("a",), ("b",)])
    sh = Sheaf(
        t, {t.open_for(["a"]): euclidean(3),
            t.open_for(["b"]): euclidean(2)}, [],
    )
    ab = t.open_for(["a", "b"])
    assert sh.stalk(ab.id).dim == 5
    assert not sh.pullback(ab.id).constraints


def test_union_with_overlap_gets_agreement_constraint():
    sh, t = build_pair_sheaf(
        euclidean(2), euclidean(2), euclidean(1),
        Projection([1]), Projection([0]),
    )
    top = t.full
    assert sh.stalk(top.id).dim == 4
    pb = sh.pullback(top.id)
    assert pb.constraints
    assert sh.dim(top.id) == 3  # 2 + 2 - 1 agreement
    rows = sh._agreement_rows(pb)
    assert np.max(np.abs(rows @ [5.0, 1.0, 1.0, 6.0])) <= 1e-9
    assert np.max(np.abs(rows @ [5.0, 1.0, 2.0, 6.0])) == 1.0


def test_missing_intersection_stalk_raises():
    u = EntityUniverse(["p", "q", "r"])
    t = generate_topology(u, [("p", "q"), ("q", "r")])
    with pytest.raises(MissingIntersectionStalk):
        Sheaf(
            t, {t.open_for(["p", "q"]): euclidean(2),
                t.open_for(["q", "r"]): euclidean(2)}, [],
        )


def test_missing_basis_stalk_raises_at_construction():
    u = EntityUniverse(["p", "q", "r"])
    t = generate_topology(u, [("p", "q"), ("q", "r")])
    with pytest.raises(MissingIntersectionStalk,
                       match=r"no stalk on basis opens: \{q\}"):
        Sheaf(t, {t.open_for(["p", "q"]): euclidean(2),
                  t.open_for(["q", "r"]): euclidean(2)}, [])


def test_sheaf_on_a_family_missing_an_intersection_needs_its_stalk():
    """A hand-built family that is not intersection-closed: {a,b} ^
    {b,c} = {b} becomes a basis open of its topology, so a sheaf with
    no stalk there is refused when it is built."""
    u = EntityUniverse(["a", "b", "c"])
    ab, bc = u.mask_of(["a", "b"]), u.mask_of(["b", "c"])
    t = Topology(u, [ab, bc])
    assert [b.mask for b in t.basis] == [u.mask_of(["b"]), ab, bc]
    with pytest.raises(MissingIntersectionStalk,
                       match=r"no stalk on basis opens: \{b\}$"):
        Sheaf(t, {t.find(ab): euclidean(1), t.find(bc): euclidean(1)}, [])


def test_pullback_open_containing_native_union_lists_it_as_part():
    """W is one part of every pullback open around it, so restricting
    to W reads W's own slice."""
    sh, w = nested_native_union()
    t = sh.topology
    rng = random.Random(53)
    for big in (t.open_for(["e0", "e1", "e2"]), t.full):
        pb = sh.pullback(big.id)
        assert w.id in pb.parts
        lo, hi = pb.slices()[w.id]
        x = sample_stalk(sh, big.id, rng).coords
        assert sh.restrict_coords(big.id, w.id, x) == tuple(x[lo:hi])


def test_overlap_of_native_unions_meets_in_a_pullback():
    """With {e0,e1,e2} and {e1,e2,e3} native, the whole space is their
    pullback, constrained on {e1,e2}, which has no stalk of its own;
    every stalk keeps the dimension it has without the two unions."""
    base = random_linear_sheaf(random.Random(7), n_entities=4,
                               include_full=False)
    t = base.topology
    w1, w2 = t.open_for(["e0", "e1", "e2"]), t.open_for(["e1", "e2", "e3"])
    sh = with_native_union(with_native_union(base, w1.id), w2.id)
    inter = t.open_for(["e1", "e2"])
    assert sh.pullback(inter.id) is not None
    assert sh.pullback(t.full.id).constraints == ((w1.id, w2.id, inter.id),)
    assert [sh.dim(o.id) for o in t.opens] == [base.dim(o.id) for o in t.opens]
    assert verify_gluing(sh).ok and all_pairs_gluing(sh).ok


def test_complete_unions_idempotent():
    """Completing twice keeps the given stalks and every pullback, so
    restrictions into pullback opens still compose."""
    rng = random.Random(31)
    sar = build_sar_sheaf()
    for sh in (sar, random_linear_sheaf(rng, include_full=False)):
        again = complete_unions(sh)
        assert set(again.stalks) == set(sh.stalks)
        opens = sh.topology.opens
        assert any(sh.pullback(o.id) is not None for o in opens if o.mask)
        for o in opens:
            assert again.pullback(o.id) == sh.pullback(o.id)
            assert again.stalk(o.id) == sh.stalk(o.id)
    t = sar.topology
    pair = t.open_for(["theta1", "theta2"])
    x = sample_point(sar.stalk(t.full.id), rng).coords
    assert complete_unions(sar).restrict_coords(t.full.id, pair.id, x) == \
        sar.restrict_coords(t.full.id, pair.id, x)


def existence_counterexample():
    """A union stalk too small to cover the agreement space: the value c
    on one side has no preimage upstairs."""
    u = EntityUniverse(["e1", "e2", "e3"])
    t = generate_topology(u, [("e1", "e2"), ("e2", "e3"),
                              ("e1", "e2", "e3")])
    u1, u2 = t.open_for(["e1", "e2"]), t.open_for(["e2", "e3"])
    mid, top = t.open_for(["e2"]), t.full
    return Sheaf(
        t,
        {top: euclidean(1), u1: euclidean(2), u2: euclidean(1),
         mid: euclidean(1)},
        [RestrictionMap(top, u1, Linear([[1.0], [0.0]])),
         RestrictionMap(top, u2, Identity()),
         RestrictionMap(u1, mid, Linear([[1.0, 1.0]])),
         RestrictionMap(u2, mid, Identity())],
    )


def test_gluing_counterexample_existence_failure():
    report = verify_gluing(existence_counterexample())
    assert not report.ok
    assert any("existence" in f for f in report.failures)


def test_gluing_passes_on_completed_unions():
    rng = random.Random(37)
    for _ in range(10):
        sh = random_linear_sheaf(rng)
        assert verify_gluing(sh).ok


def test_gluing_requires_linearity():
    with pytest.raises(NonlinearSheaf):
        verify_gluing(build_sar_sheaf())


def test_sections_match_stacked_constraint_oracle():
    rng = random.Random(41)
    for _ in range(20):
        sh = random_linear_sheaf(rng)
        t = sh.topology
        opens = [o.mask for o in t.opens if o.mask]
        expected = agreement_dim(
            opens,
            lambda m: sh.dim(t.find(m).id),
            lambda big, small: sh.restriction_matrix(t.find(big).id,
                                                     t.find(small).id),
        )
        assert sh.dim(t.full.id) == expected


def test_restriction_chain_consistency_on_samples():
    sh = build_sar_sheaf()
    t = sh.topology
    rng = random.Random(43)
    u34 = t.open_for(["theta1", "theta2", "t"])
    mid = t.open_for(["theta1", "t"])
    small = t.open_for(["t"])
    for _ in range(25):
        p = sample_stalk(sh, u34.id, rng)
        direct = sh.restrict_coords(u34.id, small.id, p.coords)
        stepped = sh.restrict_coords(
            mid.id, small.id, sh.restrict_coords(u34.id, mid.id, p.coords)
        )
        assert np.allclose(direct, stepped, atol=1e-9)


def test_ambient_matrix_agrees_with_restrict_coords():
    rng = random.Random(47)
    for _ in range(20):
        sh = random_linear_sheaf(rng)
        for small, large in comparable_pairs(sh.topology):
            x = [rng.gauss(0.0, 10.0) for _ in range(sh.stalk(large.id).dim)]
            m = sh.ambient_matrix(large.id, small.id)
            assert np.allclose(m @ x, sh.restrict_coords(large.id, small.id, x),
                               rtol=1e-12, atol=1e-9)


def test_compiled_restrictions_are_the_whole_chains():
    """Between every comparable pair of opens, unions without a stalk
    of their own included, ``restrict_coords`` equals the walk that runs
    each block's whole chain from the first part of the source that
    carries it, bit for bit at sampled points, or raises its error:
    leading identities and projections onto a run only narrow the
    slice."""
    rng = random.Random(26)
    for sh in restriction_fixtures(rng, 400, 100):
        for small, large in comparable_pairs(sh.topology):
            for _ in range(2):
                x = sample_point(sh.stalk(large.id), rng).coords
                try:
                    want = reference_restrict_coords(sh, large.id, small.id,
                                                     x)
                except SpaceMismatch as exc:
                    with pytest.raises(SpaceMismatch) as got:
                        sh.restrict_coords(large.id, small.id, x)
                    assert str(got.value) == str(exc)
                    continue
                got = sh.restrict_coords(large.id, small.id, x)
                assert [float(v).hex() for v in got] == \
                    [float(v).hex() for v in want], (str(large), str(small))


def test_a_projection_past_its_stalk_is_not_narrowed():
    """Narrowed to a slice, it would read the next part's coordinates;
    the sheaf is refused when it is built, so no restriction runs it."""
    with pytest.raises(SpaceMismatch, match=re.escape(
            "restriction a+b -> a: projection indices [2, 3] must lie in "
            "[0, 3)")):
        projection_sheaf(past_end=True)


# bodies from R^2 on {a,b} to R^1 on {a} that do not fit, each as a
# spec entry and with the error a spec load and ``Sheaf`` both raise;
# ``cmp`` is a builtin that declares it reads coordinate 0 but branches
# on coordinate 1, in both calls or in its batch call alone
UNFIT_BODIES = {
    "linear_shape": ({"kind": "linear", "matrix": [[1.0, 0.0, 0.0]]},
                     "matrix of shape (1, 3), the stalks need (1, 2)"),
    "negative_index": ({"kind": "projection", "indices": [-1]},
                       "projection indices [-1] must lie in [0, 2)"),
    "outside_index": ({"kind": "projection", "indices": [2]},
                      "projection indices [2] must lie in [0, 2)"),
    "builtin_length": ({"kind": "builtin", "name": "test_pair"},
                       "builtin 'test_pair' gives 2 coordinates, the "
                       "target stalk has 1"),
    "cmp": ({"kind": "builtin", "name": "test_cmp"},
            "builtin 'test_cmp' declares it reads coordinates [0], but its "
            "output changes with the others"),
    "cmp_batch": ({"kind": "builtin", "name": "test_cmp_batch"},
                  "builtin 'test_cmp_batch' declares it reads coordinates "
                  "[0], but its output changes with the others"),
}


def branch(q):
    return (q[:, 0] + np.where(q[:, 1] > 0.5, 1.0, 0.0))[:, None]


@pytest.mark.parametrize("case", UNFIT_BODIES)
def test_a_sheaf_built_in_python_refuses_a_body_that_does_not_fit(
        tmp_path, case):
    """The same body in a spec and in ``Sheaf(...)`` raises the same
    message: ``SpecError`` from the load, ``SpaceMismatch`` from the
    constructor.  Unchecked, the ``cmp`` builtins see NaN on coordinate
    1 in a lift from coordinate 0 and lift to a wrong matrix."""
    entry, message = UNFIT_BODIES[case]
    register_builtin("test_pair", lambda params: lambda c: (c[0], c[0]))
    register_builtin("test_cmp", lambda params: lambda c: (
        c[0] + (1.0 if c[1] > 0.5 else 0.0),),
        batch=lambda params: branch, reads=(0,))
    register_builtin("test_cmp_batch", lambda params: lambda c: (c[0],),
                     batch=lambda params: branch, reads=(0,))
    try:
        t = generate_topology(EntityUniverse(["a", "b"]), [("a",)])
        mid = t.open_for(["a"])
        stalks = {t.full: euclidean(2), mid: euclidean(1)}
        path = tmp_path / "spec.json"
        save_sheaf(path, Sheaf(t, stalks, [
            RestrictionMap(t.full, mid, Projection([0]))]))
        data = json.loads(path.read_text())
        data["restrictions"][0] = {"from": "a+b", "to": "a", **entry}
        path.write_text(json.dumps(data))
        where = "restriction a+b -> a: "
        with pytest.raises(SpecError) as loaded:
            load_sheaf(path)
        assert str(loaded.value) == where + message
        body = body_from_json(entry)
        with pytest.raises(SpaceMismatch) as built:
            Sheaf(t, stalks, [RestrictionMap(t.full, mid, body)])
        assert str(built.value) == where + message
    finally:
        for name in ("test_pair", "test_cmp", "test_cmp_batch"):
            del BUILTIN_CATALOG[name]


def test_a_build_draws_each_sources_probe_points_once(monkeypatch):
    """SAR's whole space feeds three builtins that declare ``reads`` and
    {theta1,theta2,s} two that do not: one build seeds the probe's
    sampler once per source and seed, three times in all, where a draw
    per builtin seeded it eight times."""
    from sheaffuse import sheaf as sheaf_module

    seeds = []

    class Seeded(random.Random):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(sheaf_module, "random",
                        SimpleNamespace(Random=Seeded))
    build_sar_sheaf()
    assert sorted(seeds) == [0, 0, 1]


def test_ambient_matrix_is_the_product_of_the_whole_chains():
    """On every linear fixture, the obstacle mosaic's projections
    included, each ambient matrix equals the product of the whole
    chains' body matrices exactly."""
    rng = random.Random(27)
    for sh in restriction_fixtures(rng, 400, 0):
        if not sh.is_linear():
            continue
        for small, large in comparable_pairs(sh.topology):
            assert np.array_equal(
                sh.ambient_matrix(large.id, small.id),
                reference_ambient_matrix(sh, large.id, small.id)), \
                (str(large), str(small))


def test_restriction_matrix_to_itself_is_exact_identity():
    """Pullback opens included: K^T K would be the identity only up to
    rounding (seeds 28 and 32 have such a whole space)."""
    for seed in range(20, 60):
        sh = random_linear_sheaf(random.Random(seed), n_entities=4,
                                 include_full=bool(seed % 2))
        for o in sh.topology.opens:
            m = sh.restriction_matrix(o.id, o.id)
            assert np.array_equal(m, np.eye(sh.dim(o.id))), (seed, str(o))
            assert sh.restriction_matrix(o.id, o.id) is m


def test_restriction_matrix_between_native_opens_is_the_ambient_one():
    """Opens with stalks of their own have identity kernel bases, so
    the restriction matrix between two of them is the ambient matrix
    itself, equal to the product through their kernel bases; any other
    pair still goes through the kernel bases."""
    native = through_bases = 0
    for seed in range(20, 40):
        sh = random_linear_sheaf(random.Random(seed), n_entities=4,
                                 include_full=bool(seed % 2))
        for small, large in comparable_pairs(sh.topology):
            m = sh.restriction_matrix(large.id, small.id)
            amb = sh.ambient_matrix(large.id, small.id)
            product = (sh.kernel_basis(small.id).T @ amb
                       @ sh.kernel_basis(large.id))
            if large.id in sh.stalks and small.id in sh.stalks:
                native += 1
                assert m is amb
            else:
                through_bases += 1
            assert np.array_equal(m, product), (seed, str(large), str(small))
    assert native and through_bases


def test_ambient_matrix_is_built_once_and_read_only():
    sh = random_linear_sheaf(random.Random(49))
    for small, large in comparable_pairs(sh.topology):
        m = sh.ambient_matrix(large.id, small.id)
        assert sh.ambient_matrix(large.id, small.id) is m
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[...] = 0.0


def point_rows(body, points):
    return [tuple(body(tuple(p))) for p in points.tolist()]


def test_batch_call_matches_point_call_for_every_body_kind():
    """Identity, Projection, Builtin and plain callables agree bit for
    bit; Linear, Affine and chains through them up to the rounding of
    each dot product, d * eps * (|A| |x| + |b|)."""
    rng = np.random.default_rng(53)
    points = rng.normal(0.0, 100.0, size=(200, 4))
    mat, offset = rng.normal(size=(3, 4)), rng.normal(size=3)
    seen = []

    def plain(p):
        # a plain callable is handed tuples of Python floats
        assert type(p) is tuple and all(type(v) is float for v in p)
        seen.append(p)
        return (p[0] * p[1], p[3])

    exact = [
        Identity(),
        Projection([2, 0, 0]),
        Builtin("fold", lambda p: (p[0] * p[1], abs(p[2]))),
        Builtin("fold", lambda p: (p[0] * p[1], abs(p[2])),
                batch_fn=lambda q: np.column_stack((q[:, 0] * q[:, 1],
                                                    np.abs(q[:, 2])))),
        Chain((Projection([3, 1]), Identity()), ()),
        plain,
    ]
    for body in exact:
        got = batch_call(body, points)
        assert got.shape[0] == len(points)
        assert [tuple(r) for r in got.tolist()] == point_rows(body, points)
    assert len(seen) == 2 * len(points)  # the batch loop and point_rows
    rounded = [
        (Linear(mat), np.abs(mat), 0.0),
        (Affine(mat, offset), np.abs(mat), np.abs(offset)),
        (Chain((Projection([0, 1, 2, 3]), Linear(mat)), ()), np.abs(mat),
         0.0),
    ]
    for body, abs_mat, abs_offset in rounded:
        got = batch_call(body, points)
        want = np.array(point_rows(body, points))
        bound = 4 * np.finfo(float).eps * (np.abs(points) @ abs_mat.T
                                           + abs_offset)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= bound)
