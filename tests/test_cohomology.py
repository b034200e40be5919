import itertools
import json
import math
import random
import re

import numpy as np
import pytest

from conftest import (
    camera_chain_sheaf,
    constant_circle_sheaf,
    nested_native_union,
    random_linear_sheaf,
    with_corrupted_edge,
)
from oracles import (
    agreement_dim,
    circle_cover_betti,
    full_cover,
    global_sections_via_h0,
    grid_lift_reference,
    lift_mass_matrix,
    reference_build_complex,
    reference_cells,
    reference_leray_check,
    reference_lift_sheaf,
    reference_minimal_open_poset,
    reference_topology_betti,
    restrict_sheaf,
)
from sheaffuse import (
    BinGrid,
    Cover,
    EntityUniverse,
    Identity,
    Projection,
    RestrictionMap,
    Sheaf,
    betti,
    build_complex,
    euclidean,
    generate_topology,
    leray_check,
    stochastic_lift,
    uniform_grid,
)
from sheaffuse.cohomology import (
    DD_TOL,
    LIFT_CHUNK_POINTS,
    LIFT_SUBDIVISIONS,
    _betti_table,
    _chunk_cells,
    _lift_chunk,
    _minimal_open_poset,
    lift_sheaf,
    topology_betti,
)
from sheaffuse import cohomology
from sheaffuse.errors import (
    IntersectionNotOpen,
    NonlinearSheaf,
    SpaceMismatch,
    UnmappedBin,
)
from sheaffuse.sheaf import (
    BUILTIN_CATALOG,
    FUNCTORIALITY_TOL,
    Builtin,
    register_builtin,
    resolve_builtin,
)
from sheaffuse.scenarios import (
    build_coin_sheaf,
    build_obstacle_sheaves,
    build_sar_sheaf,
    sar_lift_ranges,
)
from sheaffuse.topology import OPEN_CAP, OpenSet, Topology


def random_cover(rng, t):
    opens = [o for o in t.opens if o.mask]
    while True:
        k = rng.randint(1, min(3, len(opens)))
        sets = rng.sample(opens, k)
        mask = 0
        for s in sets:
            mask |= s.mask
        if mask == t.full.mask:
            return Cover(tuple(sets))


def test_dd_zero_everywhere():
    rng = random.Random(79)
    for _ in range(30):
        sh = random_linear_sheaf(rng)
        cover = random_cover(rng, sh.topology)
        cx = build_complex(sh, cover, 3)
        worst = 0.0
        for k in range(len(cx.coboundaries) - 1):
            dd = cx.coboundaries[k + 1] @ cx.coboundaries[k]
            if dd.size:
                assert float(np.max(np.abs(dd))) <= 1e-10
                worst = max(worst, float(np.max(np.abs(dd))))
        assert betti(sh, cover, 3).dd_residual == worst


def test_obstacle_tables_report_dd_residual_within_tolerance():
    mosaic, prob = build_obstacle_sheaves()
    t = prob.topology
    two = Cover((t.open_for(["L", "V1", "V2"]),
                 t.open_for(["R", "V1", "V2"])))
    for sh in (mosaic, prob):
        for cover in (two, full_cover(t)):
            table = betti(sh, cover, 2)
            assert table.dd_residual <= DD_TOL
            assert table.as_dict()["dd_residual"] == table.dd_residual
        assert topology_betti(sh, 2, sh.topology.full).dd_residual <= DD_TOL


def test_coboundary_blocks_match_sign_oracle():
    """Entry-by-entry rebuild of d^k for a 3-set cover: block (idx, sub)
    is (-1)^j times the restriction into the full intersection."""
    rng = random.Random(83)
    sh = random_linear_sheaf(rng, n_entities=3)
    t = sh.topology
    opens = [o for o in t.opens if o.mask]
    sets = (rng.sample(opens, 2) + [t.full])[:3]
    cover = Cover(tuple(sets))
    cx = build_complex(sh, cover, 2)

    for k in range(2):
        src_layer = cx.degrees[k]
        dst_layer = cx.degrees[k + 1]
        got = cx.coboundaries[k]
        expected = np.zeros_like(got)
        src_offs = {}
        pos = 0
        for idx, oid, d in src_layer:
            src_offs[idx] = (pos, oid, d)
            pos += d
        pos = 0
        for idx, oid, d in dst_layer:
            for j in range(len(idx)):
                sub = idx[:j] + idx[j + 1:]
                if sub not in src_offs:
                    continue
                spos, soid, sdim = src_offs[sub]
                block = sh.restriction_matrix(soid, oid)
                expected[pos:pos + d, spos:spos + sdim] = \
                    ((-1.0) ** j) * block
            pos += d
        assert np.allclose(got, expected)


def test_probability_sheaf_cover_structure():
    _, prob = build_obstacle_sheaves()
    t = prob.topology
    cover = Cover((t.open_for(["L", "V1", "V2"]),
                   t.open_for(["R", "V1", "V2"])))
    cx = build_complex(prob, cover, 1)
    assert cx.dim(0) == 4      # two R^2 camera stalks
    assert cx.dim(1) == 2      # one probability per overlap component
    table = betti(prob, cover, 2)
    assert table.betti == [3, 1, 0]


def test_mosaic_sheaf_vanishes_above_zero():
    mosaic, _ = build_obstacle_sheaves()
    t = mosaic.topology
    cover = Cover((t.open_for(["L", "V1", "V2"]),
                   t.open_for(["R", "V1", "V2"])))
    table = betti(mosaic, cover, 2)
    assert table.betti[0] == 12
    assert all(b == 0 for b in table.betti[1:])


def test_refined_cover_tables_vanish():
    mosaic, prob = build_obstacle_sheaves()
    t = prob.topology
    overlap = t.open_for(["V1", "V2"]).mask
    for sh in (mosaic, prob):
        sub = restrict_sheaf(sh, overlap)
        st = sub.topology
        refined = Cover((st.full, st.open_for(["V1"]), st.open_for(["V2"])))
        assert all(b == 0 for b in betti(sub, refined, 2).betti[1:])
        assert all(b == 0 for b in topology_betti(sub, 2, st.full).betti[1:])


def test_topology_betti_of_an_open_matches_its_restricted_sheaf():
    """The table of an open, read from the part of the sheaf's own
    poset inside it, equals the table of the sheaf rebuilt on the open,
    ``dd_residual`` included, on every nonempty open."""
    mosaic, prob = build_obstacle_sheaves()
    rng = random.Random(5)
    sheaves = [mosaic, prob,
               *(build_coin_sheaf(v) for v in ("mosaic", "counts", "value")),
               *(random_linear_sheaf(rng) for _ in range(60))]
    checked = 0
    for i, sh in enumerate(sheaves):
        for u in sh.topology.opens[1:]:
            want = reference_topology_betti(restrict_sheaf(sh, u.mask), 2)
            assert topology_betti(sh, 2, u).as_dict() == want.as_dict(), \
                (i, u)
            checked += 1
    assert checked == 206


def test_lift_needs_a_grid_for_each_native_union():
    sh, w = nested_native_union()
    grids = {}
    for b in sh.topology.basis:
        dim = sh.stalk(b.id).dim
        grids[b.id] = uniform_grid([-1.0] * dim, [1.0] * dim, 1)
    with pytest.raises(UnmappedBin,
                       match=re.escape(f"no bin grid given for open {w}")):
        lift_sheaf(sh, grids)


def test_circular_cover_of_constant_sheaf():
    sh, cover_sets = constant_circle_sheaf()
    table = betti(sh, Cover(cover_sets), 2)
    expected = circle_cover_betti()
    assert table.betti[:2] == expected
    assert topology_betti(sh, 2, sh.topology.full).betti[:2] == expected


def test_negative_max_degree_raises():
    """No degree is computed below 0, so a table there would be empty."""
    mosaic, _ = build_obstacle_sheaves()
    cover = full_cover(mosaic.topology)
    for run in (lambda: build_complex(mosaic, cover, -1),
                lambda: betti(mosaic, cover, -1),
                lambda: topology_betti(mosaic, -1, mosaic.topology.full),
                lambda: leray_check(mosaic, cover, -2)):
        with pytest.raises(ValueError, match="max_degree must be "
                                             "nonnegative"):
            run()


def test_betti_invariant_under_matrix_scaling():
    rng = random.Random(89)
    sh = random_linear_sheaf(rng)
    cover = full_cover(sh.topology)
    base = betti(sh, cover, 2).betti
    from sheaffuse.sheaf import Linear, RestrictionMap

    scaled = Sheaf(sh.topology, sh.stalks, [
        RestrictionMap(rm.source, rm.target, Linear(rm.body.mat * 1e6))
        for rm in sh.edges.values()
    ])
    assert betti(scaled, cover, 2).betti == base


def test_nonlinear_sheaf_rejected():
    sh = build_sar_sheaf()
    with pytest.raises(NonlinearSheaf):
        betti(sh, full_cover(sh.topology), 1)


def test_intersection_not_open_detected():
    """A cover holding an open of another topology on the same entities:
    {b} is open there but not in the sheaf's topology."""
    from sheaffuse import EntityUniverse, Identity, RestrictionMap, Sheaf
    from sheaffuse import euclidean as euc
    from sheaffuse.errors import IntersectionNotOpen

    u = EntityUniverse(["a", "b", "c"])
    t = generate_topology(u, [("a", "b"), ("a", "c")])
    ab, ac, a = (t.open_for(names) for names in (["a", "b"], ["a", "c"],
                                                 ["a"]))
    sh = Sheaf(t, {ab: euc(1), ac: euc(1), a: euc(1)},
               [RestrictionMap(ab, a, Identity()),
                RestrictionMap(ac, a, Identity())])
    other = generate_topology(u, [("b",)])
    with pytest.raises(IntersectionNotOpen,
                       match=r"intersection of \{b\} is not an open set"):
        build_complex(sh, Cover((ab, other.open_for(["b"]))), 1)


def test_h0_equals_brute_force_sections():
    rng = random.Random(97)
    for _ in range(25):
        sh = random_linear_sheaf(rng)
        t = sh.topology
        basis = global_sections_via_h0(sh)
        expected = agreement_dim(
            [o.mask for o in t.opens if o.mask],
            lambda m: sh.dim(t.find(m).id),
            lambda big, small: sh.restriction_matrix(t.find(big).id,
                                                     t.find(small).id),
        )
        assert basis.shape[1] == expected
        assert betti(sh, full_cover(t), 0).betti[0] == expected


def test_single_open_topology_sections_are_whole_stalk():
    rng = random.Random(101)
    sh = random_linear_sheaf(rng, n_entities=1)
    t = sh.topology
    assert global_sections_via_h0(sh).shape[1] == sh.dim(t.full.id)


def test_probability_sheaf_sections_three_dimensional():
    _, prob = build_obstacle_sheaves()
    assert global_sections_via_h0(prob).shape[1] == 3


def test_leray_single_set_cover_on_acyclic_sheaf():
    mosaic, _ = build_obstacle_sheaves()
    report = leray_check(mosaic, Cover((mosaic.topology.full,)), 2)
    assert report.verdict
    assert report.tables_equal


def test_leray_passes_and_certifies_for_mosaic_two_camera_cover():
    mosaic, _ = build_obstacle_sheaves()
    t = mosaic.topology
    cover = Cover((t.open_for(["L", "V1", "V2"]),
                   t.open_for(["R", "V1", "V2"])))
    report = leray_check(mosaic, cover, 2)
    assert report.verdict
    assert report.tables_equal
    assert report.cover_betti.betti == report.topology_betti.betti


def test_leray_certifies_nontrivial_obstruction():
    """Both tables carry the degree-one obstruction when the hypothesis
    holds, even though it is nonzero."""
    _, prob = build_obstacle_sheaves()
    t = prob.topology
    cover = Cover((t.open_for(["L", "V1", "V2"]),
                   t.open_for(["R", "V1", "V2"])))
    report = leray_check(prob, cover, 2)
    assert report.verdict
    assert report.tables_equal
    assert report.cover_betti.betti[1] == 1


def test_leray_failure_witnessed_on_circle():
    sh, cover_sets = constant_circle_sheaf()
    report = leray_check(sh, Cover((sh.topology.full,)), 2)
    assert not report.verdict
    assert report.witnesses
    # and indeed the single-set cover table misses the obstruction
    assert betti(sh, Cover((sh.topology.full,)), 2).betti[1] == 0
    assert topology_betti(sh, 2, sh.topology.full).betti[1] == 1


def test_leray_passes_on_circle_arc_cover():
    sh, cover_sets = constant_circle_sheaf()
    report = leray_check(sh, Cover(cover_sets), 2)
    assert report.verdict
    assert report.tables_equal


# ---------------------------------------------------------------------------
# the cochain-complex routine against the former routines

def sar_lift_grids(sh, bins):
    ranges = sar_lift_ranges()
    grids = {}
    for b in sh.topology.basis:
        per_coord = ranges[b.key()]
        grids[b.id] = uniform_grid([lo for lo, _ in per_coord],
                                   [hi for _, hi in per_coord], bins)
    return grids


def maximal_basis_cover(t):
    return Cover(tuple(b for b in t.basis if not any(
        b.mask != c.mask and b.mask & c.mask == b.mask for c in t.basis)))


def uncovered_entity_sheaf(seed):
    """A random sheaf with an entity in no basis open, so the whole
    space is a poset node with a constrained pullback stalk."""
    sh = random_linear_sheaf(random.Random(seed), n_entities=4,
                             include_full=False)
    top = sh.topology.full.id
    assert top in _minimal_open_poset(sh)
    assert sh.pullback(top).constraints
    return sh


@pytest.fixture(scope="module")
def reference_fixtures():
    """(name, sheaf, covers): random linear sheaves, with and without a
    stalk on the whole space, the obstacle, coin, circle and camera
    chain sheaves and the SAR lift at 2 bins."""
    rng = random.Random(4242)
    out = []
    for i in range(40):
        sh = random_linear_sheaf(rng, n_entities=rng.randint(2, 4),
                                 include_full=i >= 10)
        t = sh.topology
        out.append((f"random {i}", sh, [full_cover(t)] + [
            random_cover(rng, t) for _ in range(2)]))
    for seed in (28, 32):
        sh = uncovered_entity_sheaf(seed)
        out.append((f"uncovered {seed}", sh, [full_cover(sh.topology)]))
    mosaic, prob = build_obstacle_sheaves()
    t = prob.topology
    two = Cover((t.open_for(["L", "V1", "V2"]),
                 t.open_for(["R", "V1", "V2"])))
    for name, sh in (("mosaic", mosaic), ("probability", prob)):
        out.append((name, sh, [two, full_cover(t), Cover((t.full,))]))
    for variant in ("mosaic", "counts", "value"):
        sh = build_coin_sheaf(variant)
        out.append((f"coins {variant}", sh, [full_cover(sh.topology)]))
    sh, arcs = constant_circle_sheaf()
    out.append(("circle", sh, [Cover(arcs), Cover((sh.topology.full,))]))
    sh = camera_chain_sheaf()
    out.append(("chain", sh, [maximal_basis_cover(sh.topology),
                              Cover((sh.topology.full,))]))
    sar = build_sar_sheaf()
    sh = lift_sheaf(sar, sar_lift_grids(sar, 2))
    out.append(("sar lift", sh, [maximal_basis_cover(sh.topology),
                                 Cover((sh.topology.full,))]))
    return out


def test_coboundaries_match_reference(reference_fixtures):
    for name, sh, covers in reference_fixtures:
        for cover in covers:
            cx = build_complex(sh, cover, 2)
            ref = reference_build_complex(sh, cover, 2)
            assert cx.degrees == ref.degrees, name
            assert len(cx.coboundaries) == len(ref.coboundaries) == 3
            for got, want in zip(cx.coboundaries, ref.coboundaries):
                assert got.shape == want.shape, name
                assert np.array_equal(got, want), name


def test_betti_tables_match_reference(reference_fixtures):
    for name, sh, covers in reference_fixtures:
        for cover in covers:
            ref = reference_build_complex(sh, cover, 2)
            want = _betti_table([ref.dim(k) for k in range(3)],
                                ref.coboundaries)
            assert betti(sh, cover, 2).as_dict() == want.as_dict(), name
        assert topology_betti(sh, 2, sh.topology.full).as_dict() == \
            reference_topology_betti(sh, 2).as_dict(), name


def test_leray_reports_match_reference(reference_fixtures):
    checked = 0
    for name, sh, covers in reference_fixtures:
        for cover in covers:
            got = leray_check(sh, cover, 2)
            want = reference_leray_check(sh, cover, 2)
            assert got.acyclic == want.acyclic, name
            assert got.verdict == want.verdict, name
            assert got.tables_equal == want.tables_equal, name
            assert got.witnesses == want.witnesses, name
            for a, b in ((got.cover_betti, want.cover_betti),
                         (got.topology_betti, want.topology_betti)):
                assert (a and a.as_dict()) == (b and b.as_dict()), name
            checked += got.verdict
    assert checked > 0


def test_leray_builds_no_sheaf_or_topology(monkeypatch):
    """The intersections are checked on the given sheaf's own poset, and
    an open's table is read from it too."""
    from sheaffuse import sheaf, topology

    mosaic, _ = build_obstacle_sheaves()
    t = mosaic.topology
    cover = Cover((t.open_for(["L", "V1", "V2"]),
                   t.open_for(["R", "V1", "V2"])))
    built = []
    for cls in (sheaf.Sheaf, topology.Topology):
        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting_init)
    report = leray_check(mosaic, cover, 2)
    assert report.verdict and report.tables_equal
    assert topology_betti(mosaic, 2, t.open_for(["V1", "V2"])).betti == \
        [12, 0, 0]
    assert built == []


def commuting_cones(sh, cover):
    """The distinct cover intersections that are nodes of the
    specialization poset and in which every 2-chain a > b > c of nodes
    commutes, found over every index set and every triple of nodes."""
    t = sh.topology
    nodes = reference_minimal_open_poset(sh)
    r = sh.restriction_matrix

    def within(m, mask):
        return t.opens[m].mask & mask == t.opens[m].mask

    out = []
    for k in range(1, len(cover.sets) + 1):
        for idx in itertools.combinations(range(len(cover.sets)), k):
            mask = t.full.mask
            for i in idx:
                mask &= cover.sets[i].mask
            u = t.find(mask)
            if not mask or u.id not in nodes or u in out:
                continue
            inside = [m for m in nodes if within(m, mask)]
            if all(np.max(np.abs(r(b, c) @ r(a, b) - r(a, c)), initial=0.0)
                   <= FUNCTORIALITY_TOL
                   for a, b, c in itertools.permutations(inside, 3)
                   if within(b, t.opens[a].mask)
                   and within(c, t.opens[b].mask)):
                out.append(u)
    return out


def test_commuting_cone_intersections_are_acyclic(reference_fixtures):
    """Every intersection the cone rule certifies has no cohomology
    above degree 0 by the former sub-sheaf table, and the reports list
    the intersections in the same order as the former check."""
    cones = 0
    for name, sh, covers in reference_fixtures:
        for cover in covers:
            for u in commuting_cones(sh, cover):
                table = reference_topology_betti(restrict_sheaf(sh, u.mask),
                                                 2)
                assert table.betti[1:] == [0, 0], (name, u)
                cones += 1
            assert list(leray_check(sh, cover, 2).acyclic.items()) == list(
                reference_leray_check(sh, cover, 2).acyclic.items()), name
    assert cones > 100


def test_leray_on_the_camera_chain_builds_only_the_topology_table(
        monkeypatch):
    """The five views, the four overlaps between neighbours and no
    triple intersection: nine nodes without a 2-chain, so the one poset
    complex built is the whole space's."""
    sh = camera_chain_sheaf()
    cover = maximal_basis_cover(sh.topology)
    assert len(cover.sets) == 5
    built = []
    poset_betti = cohomology._poset_betti

    def counting(sh, nodes, max_degree):
        built.append(nodes)
        return poset_betti(sh, nodes, max_degree)

    monkeypatch.setattr(cohomology, "_poset_betti", counting)
    report = leray_check(sh, cover, 2)
    assert built == [_minimal_open_poset(sh)]
    assert len(report.acyclic) == 9 and all(report.acyclic.values())
    assert report.verdict and report.tables_equal


def assert_same_report(got, want, name):
    assert list(got.acyclic.items()) == list(want.acyclic.items()), name
    assert (got.verdict, got.tables_equal, got.witnesses) == \
        (want.verdict, want.tables_equal, want.witnesses), name
    for a, b in ((got.cover_betti, want.cover_betti),
                 (got.topology_betti, want.topology_betti)):
        assert (a and a.as_dict()) == (b and b.as_dict()), name


def test_cones_that_do_not_commute_are_computed():
    """On diamond sheaves, clean and with one corrupted edge, the Leray
    report equals the former check on the full cover and on random
    covers.  A corrupted edge leaves some node's sub-poset with a 2-chain
    that does not commute, where the former table reads a negative Betti
    number: the cone rule would call such a node acyclic, and the guard
    keeps its computed table."""
    rng = random.Random(7)
    negative = 0
    for i in range(40):
        clean = random_linear_sheaf(rng, n_entities=rng.choice([3, 4]),
                                    ensure_diamond=True)
        for sh in (clean, with_corrupted_edge(clean, rng)):
            t = sh.topology
            for cover in [full_cover(t)] + [random_cover(rng, t)
                                            for _ in range(2)]:
                assert_same_report(leray_check(sh, cover, 2),
                                   reference_leray_check(sh, cover, 2), i)
            for n in reference_minimal_open_poset(sh):
                table = reference_topology_betti(
                    restrict_sheaf(sh, t.opens[n].mask), 2)
                negative += min(table.betti) < 0
    assert negative > 0


def diamond_reports():
    """The 40 diamond sheaves of ``test_cones_that_do_not_commute_are_
    computed``, drawn the same way, each clean and corrupted: yields
    (corrupted, sheaf, cover, report) on the full cover and two random
    covers."""
    rng = random.Random(7)
    for i in range(40):
        clean = random_linear_sheaf(rng, n_entities=rng.choice([3, 4]),
                                    ensure_diamond=True)
        for sh in (clean, with_corrupted_edge(clean, rng)):
            t = sh.topology
            for cover in [full_cover(t)] + [random_cover(rng, t)
                                            for _ in range(2)]:
                yield sh is not clean, sh, cover, leray_check(sh, cover, 2)


def test_leray_names_the_chains_that_do_not_commute():
    """On the diamond sheaves: every report of a corrupted sheaf that
    holds a witness with a negative Betti number names at least one
    2-chain a > b > c, every chain named is nested and fails the
    composition check, and no clean sheaf names one.  The text prints
    one line per chain, after the witnesses."""
    negative = named = 0
    for corrupted, sh, cover, report in diamond_reports():
        chains = report.does_not_commute
        if not corrupted:
            assert chains == []
            continue
        tables = [json.loads(w.rsplit(": ", 1)[1]) for w in report.witnesses]
        if any(min(table) < 0 for table in tables):
            negative += 1
            assert chains
        r = sh.restriction_matrix
        for a, b, c in chains:
            assert a.mask & b.mask == b.mask != a.mask
            assert b.mask & c.mask == c.mask != b.mask
            assert np.max(np.abs(r(b.id, c.id) @ r(a.id, b.id)
                                 - r(a.id, c.id))) > FUNCTORIALITY_TOL
        if chains:
            lines = [f"  does not commute: {a} > {b} > {c}"
                     for a, b, c in chains]
            assert str(report).split("\n")[-len(lines):] == lines
            named += 1
    assert negative > 0 and named >= negative


class CountedOpen(OpenSet):
    """An open that counts the reads of its mask."""

    reads = 0

    def __getattribute__(self, name):
        if name == "mask":
            type(self).reads += 1
        return object.__getattribute__(self, name)


def test_nerve_walk_visits_only_nonempty_intersections(monkeypatch):
    """Twelve disjoint singleton opens: 4,096 opens and 4,095 index
    sets, of which only the twelve singletons meet.  ``build_complex``
    looks up those twelve alone, and reads fewer cover masks than there
    are index sets; ``leray_check`` looks each up once for its checks
    and its complex, besides the twelve minimal neighbourhoods.  Both
    equal the former routines, which visit every index set."""
    names = [f"s{i}" for i in range(12)]
    t = generate_topology(EntityUniverse(names), [(n,) for n in names])
    assert len(t) == 4096 <= OPEN_CAP
    sh = Sheaf(t, {b: euclidean(1) for b in t.basis}, [])
    cover = Cover(tuple(CountedOpen(b.mask, b.id, b.universe)
                        for b in t.basis))
    singletons = sorted(b.mask for b in t.basis)
    found = []
    find = Topology.find

    def counting(self, mask):
        found.append(mask)
        return find(self, mask)

    monkeypatch.setattr(Topology, "find", counting)
    CountedOpen.reads = 0
    cx = build_complex(sh, cover, 11)
    assert sorted(found) == singletons
    assert CountedOpen.reads < 4095
    found.clear()
    CountedOpen.reads = 0
    report = leray_check(sh, cover, 2)
    assert sorted(found) == sorted(singletons * 2)
    assert CountedOpen.reads < 4095
    monkeypatch.undo()
    ref = reference_build_complex(sh, cover, 11)
    assert cx.degrees == ref.degrees
    assert all(np.array_equal(a, b)
               for a, b in zip(cx.coboundaries, ref.coboundaries, strict=True))
    assert_same_report(report, reference_leray_check(sh, cover, 2), "12")
    assert report.cover_betti.betti == [12, 0, 0]


def test_first_intersection_not_open_is_the_former_one():
    """Covers mixing the opens of two topologies on one universe: the
    walk raises on the same intersection as the former loops over every
    index set, or on none."""
    rng = random.Random(31)

    def outcome(run, *args):
        try:
            run(*args)
        except IntersectionNotOpen as exc:
            return str(exc)
        return None

    raised = 0
    for _ in range(60):
        sh = random_linear_sheaf(rng, n_entities=4)
        other = random_linear_sheaf(rng, n_entities=4).topology
        opens = [o for o in sh.topology.opens + other.opens if o.mask]
        cover = Cover(tuple(rng.sample(opens, rng.randint(2, 4))))
        want = outcome(reference_leray_check, sh, cover, 1)
        assert outcome(leray_check, sh, cover, 1) == want
        assert outcome(build_complex, sh, cover, 1) == outcome(
            reference_build_complex, sh, cover, 1)
        raised += want is not None
    assert raised > 10


# ---------------------------------------------------------------------------
# stochastic lifts

def test_delta_maps_to_delta():
    m = stochastic_lift(lambda i: (i + 1) % 3, 3, 3)
    for i in range(3):
        col = m[:, i]
        assert col.sum() == 1.0
        assert col[(i + 1) % 3] == 1.0


def test_mass_bookkeeping_merge():
    m = stochastic_lift(lambda i: 0 if i < 2 else 1, 3, 2)
    uniform = np.full(3, 1.0 / 3.0)
    pushed = m @ uniform
    assert pushed == pytest.approx([2.0 / 3.0, 1.0 / 3.0])


def test_columns_sum_to_one_and_match_dict_oracle():
    rng = random.Random(103)
    for _ in range(100):
        n_dom = rng.randint(1, 8)
        n_cod = rng.randint(1, 8)
        table = [rng.randrange(n_cod) for _ in range(n_dom)]
        m = stochastic_lift(lambda i, t=table: t[i], n_dom, n_cod)
        assert np.allclose(m.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(m, lift_mass_matrix(lambda i, t=table: t[i],
                                               n_dom, n_cod))


def test_composed_lifts_equal_lift_of_composition():
    rng = random.Random(107)
    for _ in range(50):
        a, b, c = (rng.randint(1, 6) for _ in range(3))
        f = [rng.randrange(b) for _ in range(a)]
        g = [rng.randrange(c) for _ in range(b)]
        mf = stochastic_lift(lambda i: f[i], a, b)
        mg = stochastic_lift(lambda j: g[j], b, c)
        mgf = stochastic_lift(lambda i: g[f[i]], a, c)
        assert np.allclose(mg @ mf, mgf)


def test_unmapped_bin_raises():
    with pytest.raises(UnmappedBin):
        stochastic_lift(lambda i: 5, 2, 3)
    with pytest.raises(UnmappedBin,
                       match="bin 0 maps outside the codomain: True"):
        stochastic_lift(lambda i: True, 2, 2)
    grid_in = uniform_grid([0.0], [1.0], 4)
    grid_out = uniform_grid([0.0], [0.5], 4)
    with pytest.raises(UnmappedBin):
        stochastic_lift(lambda p: (p[0],), grid_in, grid_out)


@pytest.mark.parametrize("subdivisions", [2.0, "3", True])
def test_grid_lift_rejects_subdivisions_not_an_integer(subdivisions):
    grid = uniform_grid([0.0], [1.0], 2)
    with pytest.raises(ValueError, match="subdivisions must be an integer"):
        stochastic_lift(lambda p: p, grid, grid, subdivisions)


def test_grid_lift_is_column_stochastic_and_preserves_mass():
    grid_in = uniform_grid([0.0, -1.0], [1.0, 1.0], 3)
    grid_out = uniform_grid([-0.1, -2.5], [2.2, 2.5], 4)
    m = stochastic_lift(lambda p: (p[0] * 2.0, p[1] - 0.3),
                        grid_in, grid_out, subdivisions=2)
    assert m.shape == (16, 9)
    assert np.all(m >= 0.0)
    assert np.allclose(m.sum(axis=0), 1.0, atol=1e-12)
    density = np.full(9, 1.0 / 9.0)
    assert m @ density == pytest.approx(
        np.asarray(m @ density), abs=0)  # shape sanity
    assert float((m @ density).sum()) == pytest.approx(1.0, abs=1e-12)


def test_grid_locate_boundary_closed_on_right():
    grid = uniform_grid([0.0], [1.0], 2)
    assert grid.locate((1.0,)) == (1,)
    assert grid.locate((0.49,)) == (0,)
    assert grid.locate((1.01,)) is None


@pytest.mark.parametrize("edges", [
    ((0.0, 0.7, 0.5, 1.0),),
    ((0.0, 0.5, 0.5, 1.0),),
    ((0.0, 1.0), (2.0,)),
    ((0.0, float("nan")),),
    ((float("-inf"), 0.0),),
])
def test_grid_rejects_bad_edges(edges):
    with pytest.raises(ValueError, match="strictly increasing"):
        BinGrid(edges)


@pytest.mark.parametrize("lows, highs, bins, why", [
    pytest.param([1.0], [0.0], 2, "strictly increasing", id="1.0-0.0"),
    pytest.param([0.0], [0.0], 2, "strictly increasing", id="0.0-0.0"),
    pytest.param([0.0], [1.0], 0, "at least 1 bin", id="no-bins"),
    pytest.param([0.0, 0.0], [1.0], 2, "2 lows but 1 highs",
                 id="unpaired-axes"),
])
def test_uniform_grid_rejects_empty_or_descending_range(lows, highs, bins,
                                                        why):
    """Also no bins at all, and a low without its high."""
    with pytest.raises(ValueError, match=why):
        uniform_grid(lows, highs, bins)


def test_grid_locate_rejects_non_finite():
    grid = uniform_grid([0.0], [1.0], 2)
    assert grid.locate((float("nan"),)) is None
    assert grid.locate((float("inf"),)) is None


def probe_values(edge):
    """Each edge, exactly and one float to either side, then NaN, both
    infinities and both zeros."""
    values = [float(np.nextafter(v, direction)) for v in edge
              for direction in (-np.inf, v, np.inf)]
    return values + [np.nan, np.inf, -np.inf, -0.0, 0.0]


BINNING_GRIDS = [
    uniform_grid([0.0], [1.0], 1),
    uniform_grid([-1.0, 0.0], [1.0, 3.0], 2),
    BinGrid(((-1.0, -0.0, 1.0),)),
    BinGrid(((-0.0, 0.5), (-1e-300, 0.0, 1e-300))),
    BinGrid(((-3.0, -2.9, 0.0, 0.25, 7.0, 7.5), (0.1, 0.2, 0.7),
             (-5.0, 4.0))),
]


def probe_points(grid, rng):
    """Every combination of the axes' probe values, or 3,000 of them."""
    axes = [probe_values(edge) for edge in grid.edges]
    rows = list(itertools.product(*axes))
    if len(rows) > 3000:
        rows = rng.sample(rows, 3000)
    return np.array(rows, dtype=float)


@pytest.mark.parametrize("grid", BINNING_GRIDS)
def test_grid_cells_match_the_search_and_clip_rule(grid):
    """On every edge, one float to either side of it, the closed last
    edge, NaN, the infinities and both zeros: the same mask and, inside
    the grid, the same cells as a search over every edge then a clip;
    ``locate`` agrees row by row."""
    points = probe_points(grid, random.Random(131))
    idx, inside = grid.cells(points)
    want_idx, want_inside = reference_cells(grid, points)
    assert np.array_equal(inside, want_inside)
    assert np.array_equal(idx[inside], want_idx[inside])
    assert 0 < inside.sum() < len(points)
    for row, ok, cell in zip(points, want_inside, want_idx):
        assert grid.locate(row) == (tuple(map(int, cell)) if ok else None)


class FixedImages:
    """A body that maps the k-th of a chunk's samples to ``images[k]``."""

    def __init__(self, images):
        self.images = images

    def batch(self, points):
        return self.images

    def __call__(self, point):
        raise AssertionError("the point call is not expected")


@pytest.mark.parametrize("grid", BINNING_GRIDS)
def test_lift_chunk_bins_like_the_search_and_clip_rule(grid):
    """Each probe row inside the grid, two samples to a domain cell and
    the cells at an offset: every sample counts in the flat cell the
    reference gives, codomain cell times the chunk's cells plus domain
    cell."""
    points = probe_points(grid, random.Random(137))
    want_idx, inside = reference_cells(grid, points)
    images, want_idx = points[inside], want_idx[inside]
    if len(images) % 2:
        images, want_idx = images[:-1], want_idx[:-1]
    n_cells = len(images) // 2
    cells = range(3, 3 + n_cells)
    counts = np.zeros((grid.size, 3 + n_cells))
    _lift_chunk(FixedImages(images), cells, np.zeros((len(images), 1)),
                uniform_grid([0.0], [1.0], 3 + n_cells), grid, counts)
    want = np.zeros_like(counts)
    cod = np.ravel_multi_index(want_idx.T, grid.shape)
    np.add.at(want, (cod, 3 + np.arange(len(images)) // 2), 1.0)
    assert np.array_equal(counts, want)


def test_grid_lift_at_4096_bins_matches_per_point_reference():
    """One axis of 4,096 bins in both grids, over several chunks: images
    inside cells, on interior edges and on the closed last edge."""
    grid = uniform_grid([0.0], [1.0], 4096)

    def f(p):
        x = p[0]
        if x > 0.9999:
            return (1.0,)
        if int(x * 12288) % 3 == 1:
            return (math.floor(x * 4096.0) / 4096.0,)  # an edge, exactly
        return (x * x,)

    assert _chunk_cells(grid, 3) < grid.size
    m = stochastic_lift(f, grid, grid, 3)
    assert np.array_equal(m, grid_lift_reference(f, grid, grid, 3))


def random_grid(rng, dim):
    edges = []
    for _ in range(dim):
        bins = rng.randint(1, 3)
        edges.append(tuple(sorted(rng.sample(range(-50, 50), bins + 1))))
    return BinGrid(tuple(tuple(e / 8.0 for e in edge) for edge in edges))


def edge_hitting_map(rng, grid_out):
    """A map whose images land on the codomain's edges (interior ones,
    both outer ones) half the time and inside a cell otherwise; images
    are memoized so every caller sees the same map."""
    images = {}

    def f(point):
        if point not in images:
            images[point] = tuple(
                rng.choice(edge) if rng.random() < 0.5
                else rng.uniform(edge[0], edge[-1])
                for edge in grid_out.edges
            )
        return images[point]

    return f, images


def test_grid_lift_matches_per_point_reference():
    rng = random.Random(109)
    right_edge_hits = 0
    for _ in range(60):
        grid_in = random_grid(rng, rng.randint(1, 3))
        grid_out = random_grid(rng, rng.randint(1, 3))
        subdivisions = rng.randint(1, 3)
        f, images = edge_hitting_map(rng, grid_out)
        m = stochastic_lift(f, grid_in, grid_out, subdivisions)
        ref = grid_lift_reference(f, grid_in, grid_out, subdivisions)
        assert m.dtype == ref.dtype
        assert np.array_equal(m, ref)
        right_edge_hits += sum(
            image[ax] == edge[-1]
            for image in images.values()
            for ax, edge in enumerate(grid_out.edges)
        )
    assert right_edge_hits > 0


def test_sar_lift_matches_per_point_reference():
    """Every SAR edge below the 6-d office stalk, at 2 bins: the
    projections and the nonlinear detection-to-bearing maps."""
    sh = build_sar_sheaf()
    grids = sar_lift_grids(sh, 2)
    checked = 0
    for (src, dst), rm in sh.edges.items():
        if sh.stalk(src).dim == 6:
            continue
        m = stochastic_lift(rm.body, grids[src], grids[dst])
        ref = grid_lift_reference(rm.body, grids[src], grids[dst])
        assert np.array_equal(m, ref), (src, dst)
        checked += 1
    assert checked == 7


@pytest.mark.parametrize("image, why", [
    ((float("nan"),), "is not finite"),
    ((0.5, 0.5), "has 2 coordinates"),
    ((), "has 0 coordinates"),
])
def test_grid_lift_rejects_bad_image(image, why):
    grid = uniform_grid([0.0], [1.0], 2)
    with pytest.raises(UnmappedBin, match=why):
        stochastic_lift(lambda p: image, grid, grid, 1)


def test_grid_lift_names_first_bad_sample():
    """A plain callable, and a builtin whose batch form has the same
    NaN: the error text is the same on the array path; images of
    unequal lengths are named too."""
    grid_in = uniform_grid([0.0], [1.0], 3)
    grid_out = uniform_grid([0.0], [1.0], 2)

    def f(p):
        # the second sample of bin 1 is NaN; bin 2 maps outside the grid
        if 0.5 < p[0] < 0.6:
            return (float("nan"),)
        return (p[0] * 2.0,)

    def batch(points):
        x = points[:, 0]
        return np.where((0.5 < x) & (x < 0.6), np.nan, x * 2.0)[:, None]

    def ragged(p):
        return (1.0, 2.0) if 0.5 < p[0] < 0.6 else (p[0] * 2.0,)

    for body, text in (
        (f, "image (nan,) of sample in domain bin (1,) is not finite"),
        (Builtin("nan_at", f, batch_fn=batch),
         "image (nan,) of sample in domain bin (1,) is not finite"),
        (ragged, "image (1.0, 2.0) of sample in domain bin (1,) has 2 "
                 "coordinates, the codomain grid 1"),
    ):
        with pytest.raises(UnmappedBin) as info:
            stochastic_lift(body, grid_in, grid_out, 2)
        assert str(info.value) == text


@pytest.mark.parametrize("batch", [
    lambda q: np.full((len(q), 1), np.inf),
    lambda q: q[:, 0],
], ids=["outside", "one-d"])
def test_grid_lift_names_a_batch_form_its_point_form_contradicts(batch):
    grid_in = uniform_grid([0.0], [1.0], 3)
    body = Builtin("half", lambda p: (p[0] * 0.5,), batch_fn=batch)
    with pytest.raises(UnmappedBin) as info:
        stochastic_lift(body, grid_in, grid_in, 2)
    assert str(info.value) == ("the batch call fails on domain bins (0,) "
                               "to (2,), the point calls do not")


def test_grid_lift_calls_a_batch_body_once_per_chunk():
    """No silent fallback to one call per sample point."""
    calls = {"point": 0, "batch": 0}

    def point(p):
        calls["point"] += 1
        return (p[0] * 0.5, p[2])

    def batch(points):
        calls["batch"] += 1
        return np.column_stack((points[:, 0] * 0.5, points[:, 2]))

    grid_in = uniform_grid([0.0] * 3, [1.0] * 3, 10)
    grid_out = uniform_grid([0.0] * 2, [1.0] * 2, 4)
    m = stochastic_lift(Builtin("spy", point, batch_fn=batch),
                        grid_in, grid_out, 3)
    per_chunk = LIFT_CHUNK_POINTS // 27
    assert 1 < per_chunk < grid_in.size
    assert calls == {"point": 0, "batch": -(-grid_in.size // per_chunk)}
    assert np.array_equal(m, grid_lift_reference(point, grid_in, grid_out))


def test_builtin_without_batch_form_lifts_like_the_reference():
    register_builtin("test_fold", lambda params: (
        lambda p: (p[0] * p[1] * params["k"], p[0] - p[1])))
    try:
        body = resolve_builtin("test_fold", {"k": 0.25})
        assert body.batch_fn is None
        grid_in = uniform_grid([-1.0, 0.0], [1.0, 2.0], 4)
        grid_out = uniform_grid([-0.5, -3.0], [0.5, 1.0], 3)
        m = stochastic_lift(body, grid_in, grid_out)
        ref = grid_lift_reference(body, grid_in, grid_out)
        assert np.array_equal(m, ref)
    finally:
        del BUILTIN_CATALOG["test_fold"]


def test_sar_batch_forms_match_point_calls_on_lift_samples():
    """Every SAR edge, the four from the 6-d office stalk included, on
    all lift sample points of the 2-bin grids: the images fall in the
    same bins, and only bearings differ at all.  np.arctan2 may differ
    from math.atan2 in the last bit, which is up to two ulps of the
    bearing in degrees."""
    sh = build_sar_sheaf()
    grids = sar_lift_grids(sh, 2)
    bearings = {"bearing_and_time_of_state", "bearing_of_detection"}
    builtins = set()
    for (src, dst), rm in sh.edges.items():
        grid_in, grid_out = grids[src], grids[dst]
        ((_, points),) = grid_in.cell_samples(3, grid_in.size)
        assert len(points) == 6 ** len(grid_in.shape)  # 46,656 at 6-d
        got = rm.body.batch(points)
        want = np.array([rm.body(p) for p in map(tuple, points.tolist())])
        assert got.shape == want.shape
        for a, b in zip(grid_out.cells(got), grid_out.cells(want)):
            assert np.array_equal(a, b), (src, dst)
        if getattr(rm.body, "name", None) in bearings:
            ulps = np.abs(got[:, 0] - want[:, 0]) / np.spacing(want[:, 0])
            assert ulps.max() <= 2.0
            got, want = got[:, 1:], want[:, 1:]
        assert np.array_equal(got, want)
        builtins.add(getattr(rm.body, "name", None))
    assert builtins >= bearings | {"dead_reckon_state"}


# ---------------------------------------------------------------------------
# lift_sheaf against the per-edge loop

def assert_same_lift(got, want):
    """The same stalks and the same matrices, bit for bit, in the same
    edge order."""
    assert list(got.edges) == list(want.edges)
    assert {oid: s.dim for oid, s in got.stalks.items()} == \
        {oid: s.dim for oid, s in want.stalks.items()}
    for key, rm in want.edges.items():
        mat = got.edges[key].body.mat
        assert mat.dtype == rm.body.mat.dtype
        assert np.array_equal(mat, rm.body.mat), key


@pytest.mark.parametrize("bins", [1, 2, 3])
def test_sar_lift_sheaf_matches_the_per_edge_loop(bins):
    sh = build_sar_sheaf()
    grids = sar_lift_grids(sh, bins)
    assert_same_lift(lift_sheaf(sh, grids), reference_lift_sheaf(sh, grids))


def as_projections(sh):
    """The same sheaf with each coordinate-selection matrix given as a
    Projection."""
    edges = [RestrictionMap(rm.source, rm.target,
                            Projection(np.argmax(rm.body.mat, axis=1)))
             for rm in sh.edges.values()]
    return Sheaf(sh.topology, sh.stalks, edges)


def test_lift_sheaf_matches_the_per_edge_loop_on_random_sheaves():
    """Random linear sheaves whose restrictions select coordinates, as
    Linear bodies and as Projections, on random bin edges shared by
    every axis: each image lands in the codomain grid."""
    rng = random.Random(113)
    projections = 0
    for _ in range(12):
        linear = random_linear_sheaf(rng, conjugate=False)
        edge = tuple(v / 8.0 for v in
                     sorted(rng.sample(range(-20, 20), rng.randint(2, 3))))
        for sh in (linear, as_projections(linear)):
            grids = {oid: BinGrid((edge,) * sh.stalk(oid).dim)
                     for oid in sh.native_ids()}
            assert_same_lift(lift_sheaf(sh, grids),
                             reference_lift_sheaf(sh, grids))
            projections += sum(isinstance(rm.body, Projection)
                               for rm in sh.edges.values())
    assert projections > 0


def test_cell_samples_of_some_axes_embed_the_sub_grid_samples():
    """The samples of a grid's cells in some axes are those of the grid
    of those axes alone, with NaN on every other axis, chunk by chunk."""
    rng = random.Random(137)
    for _ in range(100):
        grid = random_grid(rng, rng.randint(1, 4))
        d = len(grid.edges)
        axes = sorted(rng.sample(range(d), rng.randint(1, d)))
        sub = BinGrid(tuple(grid.edges[ax] for ax in axes))
        subdivisions, per_chunk = rng.randint(1, 3), rng.randint(1, 5)
        got = list(grid.cell_samples(subdivisions, per_chunk, axes))
        want = list(sub.cell_samples(subdivisions, per_chunk))
        assert [cells for cells, _ in got] == [cells for cells, _ in want]
        for (_, points), (_, sub_points) in zip(got, want):
            assert points.shape == (len(sub_points), d)
            assert np.array_equal(points[:, axes], sub_points)
            others = [ax for ax in range(d) if ax not in axes]
            assert np.isnan(points[:, others]).all()


def lift_one(body, grid_in, grid_out):
    """``lift_sheaf``'s matrix for the one edge of a sheaf whose source
    stalk is binned by ``grid_in`` and whose target by ``grid_out``."""
    t = generate_topology(EntityUniverse(["a", "b"]), [("a", "b"), ("a",)])
    x, v = t.full, t.open_for(["a"])
    sh = Sheaf(t, {x: euclidean(len(grid_in.edges)),
                   v: euclidean(len(grid_out.edges))},
               [RestrictionMap(x, v, body)])
    return lift_sheaf(sh, {x.id: grid_in, v.id: grid_out}) \
        .edges[x.id, v.id].body.mat


def assert_lifts_alike(body, grid_in, grid_out):
    """``lift_sheaf`` gives ``stochastic_lift``'s matrix on the full
    grid bit for bit, or raises the same error; True when it raised."""
    results = []
    for lift in (lambda: stochastic_lift(body, grid_in, grid_out,
                                         LIFT_SUBDIVISIONS),
                 lambda: lift_one(body, grid_in, grid_out)):
        try:
            results.append(lift())
        except UnmappedBin as exc:
            results.append(str(exc))
    want, got = results
    if isinstance(want, str):
        assert got == want
        return True
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), grid_in
    return False


def codomain_around(rng, edges):
    """A grid over per-axis image edges: the edges themselves, edges
    around their range, or edges that miss some images."""
    out = []
    for edge in edges:
        lo, hi = edge[0], edge[-1]
        kind = rng.random()
        if kind < 0.4:
            out.append(tuple(edge))
        elif kind < 0.9:
            lo -= rng.randint(0, 8) / 8.0
            hi += rng.randint(0, 8) / 8.0
            inner = rng.sample(range(1, 16), rng.randint(0, 3))
            out.append((lo, *(lo + (hi - lo) * k / 16.0
                              for k in sorted(inner)), hi))
        else:
            out.append((lo, (lo + hi) / 2.0))
    return BinGrid(tuple(out))


def test_projection_lift_from_kept_axes_matches_the_full_lift():
    """400 random grids and projections with repeated, reordered and
    dropped indices; codomain edges equal to the kept axis's, other
    edges around it, or edges that miss some samples, where both raise
    the same error, naming the same sample."""
    rng = random.Random(127)
    failures = 0
    for _ in range(400):
        grid_in = random_grid(rng, rng.randint(1, 4))
        dim = len(grid_in.edges)
        body = Projection([rng.randrange(dim)
                           for _ in range(rng.randint(1, 4))])
        grid_out = codomain_around(rng, [grid_in.edges[i]
                                         for i in body.indices])
        failures += assert_lifts_alike(body, grid_in, grid_out)
    assert failures > 0


def reading_builtin(rng, reads, declared):
    """A Builtin of 1-3 smooth outputs of the coordinates ``reads`` of
    a point, declaring ``declared`` as its reads."""
    coef = np.array([[rng.randint(-4, 4) / 4.0 for _ in reads]
                     for _ in range(rng.randint(1, 3))])
    cols = list(reads)

    def batch(points):
        x = points[:, cols]
        return x @ coef.T + 0.125 * np.sin(x[:, :1])

    return Builtin("reads", lambda p: tuple(batch(np.array([p]))[0]),
                   batch_fn=batch, reads=declared)


def test_builtin_lift_from_read_axes_matches_the_full_lift():
    """300 random grids and builtins that read some axes and declare
    them, in any order and repeated; codomains around the images, or
    missing some, where both raise the same error."""
    rng = random.Random(131)
    failures, partial = 0, 0
    for _ in range(300):
        grid_in = random_grid(rng, rng.randint(1, 4))
        dim = len(grid_in.edges)
        reads = sorted(rng.sample(range(dim), rng.randint(1, dim)))
        declared = reads + rng.sample(reads, rng.randint(0, len(reads)))
        rng.shuffle(declared)
        body = reading_builtin(rng, reads, declared)
        ((_, points),) = grid_in.cell_samples(LIFT_SUBDIVISIONS,
                                              grid_in.size)
        images = body.batch(points)
        grid_out = codomain_around(rng, zip(images.min(axis=0),
                                            images.max(axis=0) + 1.0))
        failures += assert_lifts_alike(body, grid_in, grid_out)
        partial += len(reads) < dim
    assert failures > 0 and partial > 100


def test_builtin_reading_an_undeclared_axis_gets_the_full_lift():
    """A body that computes with an axis it omits from ``reads`` is
    refused when its sheaf is built, as the probe's two points give it
    two outputs.  One that only multiplies that axis by zero passes the
    probe, but sees NaN there on the sub-grid, so its sub-lift fails
    and the full grid lifts it: the matrix still equals the full lift,
    and an image off the codomain is named as the full lift names it."""
    grid_in = uniform_grid([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 2)
    liar = Builtin("liar", lambda p: (p[0] + 0.5 * p[2],),
                   batch_fn=lambda q: (q[:, 0] + 0.5 * q[:, 2])[:, None],
                   reads=(0,))
    with pytest.raises(SpaceMismatch, match=re.escape(
            "builtin 'liar' declares it reads coordinates [0], but its "
            "output changes with the others")):
        lift_one(liar, grid_in, uniform_grid([0.0], [1.5], 3))
    body = Builtin("zero", lambda p: (p[0] + 0.0 * p[2],),
                   batch_fn=lambda q: (q[:, 0] + 0.0 * q[:, 2])[:, None],
                   reads=(0,))
    assert not assert_lifts_alike(body, grid_in,
                                  uniform_grid([0.0], [1.0], 3))
    assert assert_lifts_alike(body, grid_in, uniform_grid([0.0], [0.5], 3))
    with pytest.raises(UnmappedBin, match="outside the codomain grid"):
        lift_one(body, grid_in, uniform_grid([0.0], [0.5], 3))


@pytest.mark.parametrize("x_first, w_body, bins", [
    pytest.param(True, "map", 4, id="True"),
    pytest.param(False, "map", 4, id="False"),
    pytest.param(True, "projection", 4, id="True-projection"),
    pytest.param(False, "projection", 4, id="False-projection"),
    pytest.param(True, "map", 24, id="True-chunks"),
    pytest.param(False, "map", 24, id="False-chunks"),
])
def test_lift_sheaf_raises_the_first_failing_edge(x_first, w_body, bins):
    """Both sources fail, X -> V on a NaN image and W -> V outside its
    grid.  X is sampled first, as its first edge comes first, but the
    error raised is that of the failing edge that comes first in
    ``sh.edges``, as the per-edge loop raises it.  As a projection,
    W -> V fails from W's grid on [0, 2], lifted without sampling.  At
    24 bins an axis, a grid of X or W comes in two chunks, and each
    edge fails on the first, so the second skips it."""
    t = generate_topology(EntityUniverse(["a", "b", "c"]),
                          [("a", "b", "c"), ("a", "b"), ("a",)])
    x, w, v = (t.open_for(names) for names in
               (["a", "b", "c"], ["a", "b"], ["a"]))
    stalks = {x: euclidean(2), w: euclidean(2), v: euclidean(1)}
    x_to_v = RestrictionMap(x, v, lambda p: (
        float("nan") if p[1] > 0.5 else p[0],))
    w_to_v = RestrictionMap(w, v, Projection([0]) if w_body == "projection"
                            else lambda p: (
                                p[0] + 2.0 if p[0] > 0.5 else p[0],))
    tail = [x_to_v, w_to_v] if x_first else [w_to_v, x_to_v]
    sh = Sheaf(t, stalks, [RestrictionMap(x, w, lambda p: p)] + tail)
    grids = {oid: uniform_grid([0.0] * stalks[t.opens[oid]].dim,
                               [1.0] * stalks[t.opens[oid]].dim, bins)
             for oid in sh.native_ids()}
    if w_body == "projection":
        grids[w.id] = uniform_grid([0.0, 0.0], [2.0, 2.0], bins)
    assert -(-grids[x.id].size // _chunk_cells(
        grids[x.id], LIFT_SUBDIVISIONS)) == (2 if bins == 24 else 1)
    with pytest.raises(UnmappedBin) as want:
        reference_lift_sheaf(sh, grids)
    with pytest.raises(UnmappedBin) as got:
        lift_sheaf(sh, grids)
    assert str(got.value) == str(want.value)
    assert ("is not finite" if x_first else "outside the codomain grid") \
        in str(got.value)


def test_lift_sheaf_samples_each_source_grid_once(monkeypatch):
    """On SAR at 2 bins only the builtins are sampled, each (source, read
    axes) sub-grid once for all its edges: the whole space's state maps
    on the 5 axes other than the altitude, and {theta1,theta2,s}'s two
    detection bearings on both of its axes.  The six projections are
    counted."""
    sh = build_sar_sheaf()
    grids = sar_lift_grids(sh, 2)
    sampled = []
    cell_samples = BinGrid.cell_samples

    def counted(grid, subdivisions, per_chunk, axes=None):
        chunks = 0
        for chunk in cell_samples(grid, subdivisions, per_chunk, axes):
            chunks += 1
            yield chunk
        axes = range(len(grid.edges)) if axes is None else axes
        sampled.append((tuple(grid.edges[ax] for ax in axes), chunks))

    monkeypatch.setattr(BinGrid, "cell_samples", counted)
    lift_sheaf(sh, grids)
    t = sh.topology
    top, u5 = t.full.id, t.open_for(["theta1", "theta2", "s"]).id
    builtins = [src for (src, _), rm in sh.edges.items()
                if isinstance(rm.body, Builtin)]
    assert builtins == [top, top, top, u5, u5]
    assert sum(isinstance(rm.body, Projection)
               for rm in sh.edges.values()) == 6
    want = []
    for src, axes in ((top, (0, 1, 3, 4, 5)), (u5, (0, 1))):
        sub = BinGrid(tuple(grids[src].edges[ax] for ax in axes))
        per_chunk = max(1, LIFT_CHUNK_POINTS
                        // LIFT_SUBDIVISIONS ** len(sub.edges))
        want.append((sub.edges, -(-sub.size // per_chunk)))
    assert sampled == want


def test_lift_of_projections_alone_samples_nothing(monkeypatch):
    """A sheaf whose restrictions are all projections or identities is
    lifted without a call to ``BinGrid.cell_samples``, and its matrices
    equal the per-edge loop's bit for bit."""
    rng = random.Random(149)
    cases = []
    for _ in range(6):
        sh = as_projections(random_linear_sheaf(rng, conjugate=False))
        edge = tuple(v / 8.0 for v in
                     sorted(rng.sample(range(-20, 20), rng.randint(2, 4))))
        grids = {oid: BinGrid((edge,) * sh.stalk(oid).dim)
                 for oid in sh.native_ids()}
        cases.append((sh, grids, reference_lift_sheaf(sh, grids)))
    t = generate_topology(EntityUniverse(["a", "b"]), [("a", "b"), ("a",)])
    x, v = t.full, t.open_for(["a"])
    sh = Sheaf(t, {x: euclidean(2), v: euclidean(2)},
               [RestrictionMap(x, v, Identity())])
    grids = {x.id: uniform_grid([0.0, 0.0], [1.0, 1.0], 3),
             v.id: uniform_grid([0.0, -1.0], [1.0, 1.0], 2)}
    cases.append((sh, grids, reference_lift_sheaf(sh, grids)))

    def refused(*args, **kwargs):
        raise AssertionError("a projection was sampled")

    monkeypatch.setattr(BinGrid, "cell_samples", refused)
    for sh, grids, want in cases:
        assert all(isinstance(rm.body, (Projection, Identity))
                   for rm in sh.edges.values())
        assert_same_lift(lift_sheaf(sh, grids), want)


def test_counted_lift_bins_a_midpoint_on_an_interior_edge_to_its_right():
    """One bin on [0, 3] has the midpoints 0.5, 1.5 and 2.5.  A codomain
    edge at 1.5 puts that midpoint in the bin on its right, as the
    search over interior edges with side="right" does; midpoints on the
    outer edges lie in the closed range, and one below it fails the
    edge, which then raises as the full lift does."""
    grid_in = BinGrid(((0.0, 3.0),))
    for edges, want in [((0.0, 1.5, 3.0), [1, 2]),
                        ((0.5, 1.5, 2.5), [1, 2]),
                        ((0.0, 0.5, 2.5, 2.75), [0, 2, 1])]:
        grid_out = BinGrid((edges,))
        counts = cohomology._count_projection((0,), grid_in, grid_out)
        assert counts.tolist() == [[c] for c in want]
        assert not assert_lifts_alike(Projection([0]), grid_in, grid_out)
        assert np.array_equal(lift_one(Projection([0]), grid_in, grid_out),
                              np.array([[c / 3] for c in want]))
    grid_out = BinGrid(((0.75, 1.5, 3.0),))
    assert cohomology._count_projection((0,), grid_in, grid_out) is None
    assert assert_lifts_alike(Projection([0]), grid_in, grid_out)


def test_identity_lift_is_counted_like_the_full_lift():
    """Identity bodies on 100 random grids, to the same grid, where the
    lift is the identity matrix, and to codomains around it or missing
    some samples, where both lifts raise the same error."""
    rng = random.Random(151)
    failures = 0
    for _ in range(100):
        grid_in = random_grid(rng, rng.randint(1, 3))
        assert np.array_equal(lift_one(Identity(), grid_in, grid_in),
                              np.eye(grid_in.size))
        grid_out = codomain_around(rng, grid_in.edges)
        failures += assert_lifts_alike(Identity(), grid_in, grid_out)
    assert 0 < failures < 100


def test_repeated_indices_are_counted_jointly():
    """Projection([0, 0]) copies one axis to two outputs binned by
    different edges.  Of the midpoints 0.5, 1.5 and 2.5, one lands in
    each of the cells (0, 0), (1, 0) and (1, 1), and none in (0, 1):
    the count is taken jointly over both outputs, where a product of
    each output's own counts would put mass in every cell.  Then 200
    random grids and projections that repeat and reorder an index,
    each copy binned by its own edges, as the full lift bins them."""
    grid_in = BinGrid(((0.0, 3.0),))
    grid_out = BinGrid(((0.0, 1.0, 3.0), (0.0, 2.0, 3.0)))
    assert np.array_equal(lift_one(Projection([0, 0]), grid_in, grid_out),
                          np.array([[1.0], [0.0], [1.0], [1.0]]) / 3)
    assert not assert_lifts_alike(Projection([0, 0]), grid_in, grid_out)
    rng = random.Random(157)
    failures = 0
    for _ in range(200):
        grid_in = random_grid(rng, rng.randint(1, 3))
        dim = len(grid_in.edges)
        indices = [rng.randrange(dim) for _ in range(rng.randint(1, 3))]
        indices.insert(rng.randint(0, len(indices)), rng.choice(indices))
        grid_out = codomain_around(rng, [grid_in.edges[i] for i in indices])
        failures += assert_lifts_alike(Projection(indices), grid_in,
                                       grid_out)
    assert 0 < failures < 200

