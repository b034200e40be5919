import random
import re

import numpy as np
import pytest

from conftest import (
    camera_chain_sheaf,
    constant_circle_sheaf,
    nested_native_union,
    random_linear_sheaf,
)
from oracles import (
    agreement_dim,
    circle_cover_betti,
    grid_lift_reference,
    lift_mass_matrix,
    reference_build_complex,
    reference_leray_check,
    reference_lift_sheaf,
    reference_sub_topology,
    reference_topology_betti,
)
from sheaffuse import (
    BinGrid,
    Cover,
    EntityUniverse,
    Projection,
    RestrictionMap,
    Sheaf,
    betti,
    build_complex,
    euclidean,
    full_cover,
    generate_topology,
    global_sections_via_h0,
    leray_check,
    stochastic_lift,
    uniform_grid,
)
from sheaffuse.cohomology import (
    DD_TOL,
    LIFT_CHUNK_POINTS,
    LIFT_SUBDIVISIONS,
    _betti_table,
    _kept_axes,
    _minimal_open_poset,
    _projection_lift,
    lift_sheaf,
    restrict_sheaf,
    topology_betti,
)
from sheaffuse.errors import NonlinearSheaf, UnmappedBin
from sheaffuse.sheaf import (
    BUILTIN_CATALOG,
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
        assert topology_betti(sh, 2).dd_residual <= DD_TOL


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
    from sheaffuse.cohomology import restrict_sheaf

    mosaic, prob = build_obstacle_sheaves()
    t = prob.topology
    overlap = t.open_for(["V1", "V2"]).mask
    for sh in (mosaic, prob):
        sub = restrict_sheaf(sh, overlap)
        st = sub.topology
        refined = Cover((st.full, st.open_for(["V1"]), st.open_for(["V2"])))
        assert all(b == 0 for b in betti(sub, refined, 2).betti[1:])
        assert all(b == 0 for b in topology_betti(sub, 2).betti[1:])


def test_restrict_sheaf_keeps_native_union_stalk():
    """W's stalk comes along with its edges, so the subsheaf on
    {e0,e1,e2} is the part of the sheaf inside it."""
    from sheaffuse.cohomology import restrict_sheaf

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
    assert topology_betti(sh, 2).betti[:2] == expected


def test_negative_max_degree_raises():
    """No degree is computed below 0, so a table there would be empty."""
    mosaic, _ = build_obstacle_sheaves()
    cover = full_cover(mosaic.topology)
    for run in (lambda: build_complex(mosaic, cover, -1),
                lambda: betti(mosaic, cover, -1),
                lambda: topology_betti(mosaic, -1),
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
    from sheaffuse import EntityUniverse, Identity, RestrictionMap, Sheaf
    from sheaffuse import euclidean as euc
    from sheaffuse.errors import IntersectionNotOpen
    from sheaffuse.topology import Topology

    u = EntityUniverse(["a", "b", "c"])
    # hand-built family that is not intersection-closed: {a,b} ^ {b,c}
    # = {b} is missing
    ab, bc = u.mask_of(["a", "b"]), u.mask_of(["b", "c"])
    t = Topology(u, [ab, bc])
    sh = Sheaf(t, {t.find(ab): euc(1), t.find(bc): euc(1),
                   t.full: euc(1), t.empty: euc(0)},
               [RestrictionMap(t.full, t.find(ab), Identity()),
                RestrictionMap(t.full, t.find(bc), Identity())])
    with pytest.raises(IntersectionNotOpen):
        build_complex(sh, Cover((t.find(ab), t.find(bc))), 1)


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
    assert topology_betti(sh, 2).betti[1] == 1


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
        assert topology_betti(sh, 2).as_dict() == \
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
    """The intersections are checked on the given sheaf's own poset."""
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
    assert built == []


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
        out = []
        for i in body.indices:
            lo, hi = grid_in.edges[i][0], grid_in.edges[i][-1]
            kind = rng.random()
            if kind < 0.4:
                out.append(grid_in.edges[i])
            elif kind < 0.9:
                lo -= rng.randint(0, 8) / 8.0
                hi += rng.randint(0, 8) / 8.0
                inner = rng.sample(range(1, 16), rng.randint(0, 3))
                out.append((lo, *(lo + (hi - lo) * k / 16.0
                                  for k in sorted(inner)), hi))
            else:
                out.append((lo, (lo + hi) / 2.0))
        grid_out = BinGrid(tuple(out))
        results = []
        for lift in (
            lambda: stochastic_lift(body, grid_in, grid_out,
                                    LIFT_SUBDIVISIONS),
            lambda: _projection_lift(body, _kept_axes(body, grid_in),
                                     grid_in, grid_out),
        ):
            try:
                results.append(lift())
            except UnmappedBin as exc:
                results.append(str(exc))
        want, got = results
        if isinstance(want, str):
            failures += 1
            assert got == want
        else:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (grid_in, body.indices)
    assert failures > 0


@pytest.mark.parametrize("x_first", [True, False])
def test_lift_sheaf_raises_the_first_failing_edge(x_first):
    """Both sources fail, X -> V on a NaN image and W -> V outside its
    grid.  X is sampled first, as its first edge comes first, but the
    error raised is that of the failing edge that comes first in
    ``sh.edges``, as the per-edge loop raises it."""
    t = generate_topology(EntityUniverse(["a", "b", "c"]),
                          [("a", "b", "c"), ("a", "b"), ("a",)])
    x, w, v = (t.open_for(names) for names in
               (["a", "b", "c"], ["a", "b"], ["a"]))
    stalks = {x: euclidean(2), w: euclidean(2), v: euclidean(1)}
    x_to_v = RestrictionMap(x, v, lambda p: (
        float("nan") if p[1] > 0.5 else p[0],))
    w_to_v = RestrictionMap(w, v, lambda p: (
        p[0] + 2.0 if p[0] > 0.5 else p[0],))
    tail = [x_to_v, w_to_v] if x_first else [w_to_v, x_to_v]
    sh = Sheaf(t, stalks, [RestrictionMap(x, w, lambda p: p)] + tail)
    grids = {oid: uniform_grid([0.0] * stalks[t.opens[oid]].dim,
                               [1.0] * stalks[t.opens[oid]].dim, 4)
             for oid in sh.native_ids()}
    with pytest.raises(UnmappedBin) as want:
        reference_lift_sheaf(sh, grids)
    with pytest.raises(UnmappedBin) as got:
        lift_sheaf(sh, grids)
    assert str(got.value) == str(want.value)
    assert ("is not finite" if x_first else "outside the codomain grid") \
        in str(got.value)


def test_lift_sheaf_samples_each_source_grid_once(monkeypatch):
    """On SAR at 2 bins, the grid of each source with an edge other than
    a projection yields its chunks once for all those edges, the other
    source grids yield none, and projections see only their kept axes."""
    sh = build_sar_sheaf()
    grids = sar_lift_grids(sh, 2)
    chunks, shapes = {}, []
    cell_samples, batch = BinGrid.cell_samples, Projection.batch

    def counted(grid, subdivisions, per_chunk):
        for chunk in cell_samples(grid, subdivisions, per_chunk):
            chunks[id(grid)] = chunks.get(id(grid), 0) + 1
            yield chunk

    def spied(body, points):
        shapes.append(points.shape)
        return batch(body, points)

    monkeypatch.setattr(BinGrid, "cell_samples", counted)
    monkeypatch.setattr(Projection, "batch", spied)
    lift_sheaf(sh, grids)
    projected = {src for (src, _), rm in sh.edges.items()
                 if isinstance(rm.body, Projection)}
    mapped = {src for (src, _), rm in sh.edges.items()
              if not isinstance(rm.body, Projection)}
    for oid, grid in grids.items():
        per_chunk = max(1, LIFT_CHUNK_POINTS
                        // LIFT_SUBDIVISIONS ** len(grid.edges))
        want = -(-grid.size // per_chunk) if oid in mapped else 0
        assert chunks.get(id(grid), 0) == want, sh.topology.opens[oid]
    assert projected - mapped  # sources with projections alone
    kept = [len(set(rm.body.indices)) for rm in sh.edges.values()
            if isinstance(rm.body, Projection)]
    # the projections' sub-grids: 2 bins and 3 samples on each kept axis
    assert sum(rows for rows, _ in shapes) == sum(6 ** k for k in kept)
    assert max(width for _, width in shapes) == max(kept) == 5
