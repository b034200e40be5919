import random

import numpy as np
import pytest

from conftest import (
    camera_chain_sheaf,
    nan_sheaf,
    random_linear_sheaf,
    with_native_union,
)
from oracles import all_pairs_gluing, minimax_optimum
from sheaffuse import (
    Assignment,
    Builtin,
    EntityUniverse,
    Identity,
    Linear,
    RestrictionMap,
    Sheaf,
    assignment_distance,
    betti,
    circle,
    complete_unions,
    consistency_radius,
    euclidean,
    full_cover,
    fuse,
    fusion,
    fusion_lower_bound,
    generate_topology,
    lipschitz_bound,
    make_point,
    nelder_mead,
    product,
    pullback_global,
    sample_point,
    simplex,
    time_line,
    verify_gluing,
)
from sheaffuse._kernels import circle_dist_deg
from sheaffuse.errors import DegenerateAssignment, SpaceMismatch
from sheaffuse.fusion import FusionOptions


def test_quadratic_minimum():
    res = nelder_mead(lambda x: (x[0] - 3.0) ** 2 + (x[1] + 2.0) ** 2,
                      [0.0, 0.0], opts=FusionOptions(f_tolerance=1e-12))
    assert res.x[0] == pytest.approx(3.0, abs=1e-5)
    assert res.x[1] == pytest.approx(-2.0, abs=1e-5)


def test_rosenbrock():
    res = nelder_mead(
        lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2,
        [-1.2, 1.0],
        opts=FusionOptions(max_iterations=5000),
    )
    assert res.x[0] == pytest.approx(1.0, abs=1e-3)
    assert res.x[1] == pytest.approx(1.0, abs=1e-3)


def test_one_dimensional_minimax():
    res = nelder_mead(lambda x: max(abs(x[0]), abs(x[0] - 2.0)), [10.0])
    assert res.x[0] == pytest.approx(1.0, abs=1e-5)
    assert res.f == pytest.approx(1.0, abs=1e-6)


def test_fusion_on_a_circle_wraps_the_section():
    """Nelder-Mead searches the angle unwrapped; the stalk wraps every
    section it scores, so the fused angle lies in [0, 360) and the
    residual is its arc distance to the readings."""
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid, top = t.open_for(["a"]), t.full
    sh = Sheaf(t, {mid: circle(), top: circle()},
               [RestrictionMap(top, mid, Identity())])
    a = Assignment(sh, {top: make_point(circle(), [350.0]),
                        mid: make_point(circle(), [10.0])})
    res = fuse(a)
    (angle,) = res.section_at_top.coords
    assert res.route == "nelder_mead" and res.converged
    assert 0.0 <= angle < 360.0
    assert res.residual == max(circle_dist_deg(angle, 350.0),
                               circle_dist_deg(angle, 10.0))
    assert res.residual == pytest.approx(10.0, abs=1e-6)


def test_iteration_cap_flags_nonconvergence():
    res = nelder_mead(lambda x: (x[0] - 1e6) ** 2, [0.0],
                      opts=FusionOptions(max_iterations=3, restarts=1))
    assert not res.converged


def test_determinism_under_fixed_seed():
    rough = lambda x: max(abs(x[0] - 1.0), abs(x[1] + 2.0), 0.5 * abs(x[0]))
    a = nelder_mead(rough, [10.0, 10.0], opts=FusionOptions(seed=9))
    b = nelder_mead(rough, [10.0, 10.0], opts=FusionOptions(seed=9))
    assert a.x == b.x and a.f == b.f


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_options_reject_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="f_tolerance"):
        FusionOptions(f_tolerance=tol)


def identity_chain_sheaf():
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid, top = t.open_for(["a"]), t.full
    sh = complete_unions(Sheaf(
        t, {mid: euclidean(1), top: euclidean(1)},
        [RestrictionMap(top, mid, Identity())],
    ))
    return sh, mid, top


def test_fuse_already_global_assignment():
    sh, mid, top = identity_chain_sheaf()
    s = make_point(sh.stalk(top.id), [4.0])
    res = fuse(pullback_global(sh, s))
    assert res.residual == pytest.approx(0.0, abs=1e-9)
    assert res.iterations == 0
    assert res.route == "already_global"
    assert res.section_at_top.coords == s.coords


def test_fuse_empty_assignment_rejected():
    sh, _, _ = identity_chain_sheaf()
    with pytest.raises(DegenerateAssignment):
        fuse(Assignment(sh))


def test_fuse_identity_chain_minimax_midpoint():
    """Observations 0 and 2 through identities fuse to 1 with residual 1."""
    sh, mid, top = identity_chain_sheaf()
    a = Assignment(sh, {
        mid: make_point(sh.stalk(mid.id), [0.0]),
        top: make_point(sh.stalk(top.id), [2.0]),
    })
    res = fuse(a)
    assert res.route == "lawson"
    assert res.section_at_top.coords[0] == pytest.approx(1.0, abs=1e-12)
    assert res.residual == pytest.approx(1.0, abs=1e-12)
    assert res.dual_bound == pytest.approx(1.0, abs=1e-12)


def test_fused_assignment_is_global():
    rng = random.Random(61)
    for _ in range(10):
        sh = random_linear_sheaf(rng)
        a = Assignment(sh)
        for o in sh.topology.opens:
            if o.mask and rng.random() < 0.8:
                a.values[o.id] = sample_point(sh.stalk(o.id), rng)
        if not a.values:
            continue
        res = fuse(a, FusionOptions(seed=1))
        assert consistency_radius(res.fused).radius <= 1e-6
        if res.route == "lawson":
            assert res.converged
            assert res.residual - res.dual_bound <= \
                FusionOptions().f_tolerance


def test_optimizer_not_beaten_by_random_candidates():
    rng = random.Random(67)
    sh = random_linear_sheaf(rng)
    top = sh.topology.full
    a = Assignment(sh)
    for o in sh.topology.opens:
        if o.mask:
            a.values[o.id] = sample_point(sh.stalk(o.id), rng)
    res = fuse(a, FusionOptions(seed=2))
    for _ in range(10):
        candidate = sample_point(sh.stalk(top.id), rng)
        alt = assignment_distance(pullback_global(sh, candidate), a)
        assert res.residual <= alt + 1e-9


def test_fusion_lower_bound_values():
    assert fusion_lower_bound(0.0, 123.0) == 0.0
    assert fusion_lower_bound(15.7, 0.0) == pytest.approx(15.7)
    assert fusion_lower_bound(10.0, 4.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        fusion_lower_bound(-1.0, 0.0)


def test_lower_bound_holds_on_random_linear_sheaves():
    rng = random.Random(71)
    for _ in range(15):
        sh = random_linear_sheaf(rng)
        a = Assignment(sh)
        for o in sh.topology.opens:
            if o.mask:
                a.values[o.id] = sample_point(sh.stalk(o.id), rng)
        k = lipschitz_bound(sh)
        res = fuse(a, FusionOptions(seed=3), lipschitz=k)
        radius = consistency_radius(a).radius
        assert res.lower_bound == pytest.approx(radius / (1.0 + k))
        assert res.residual >= res.lower_bound - 1e-9


def test_fuse_over_constrained_pullback_top():
    """When the whole space carries a pullback stalk, fusion runs in the
    kernel coordinates of the agreement subspace."""
    rng = random.Random(77)
    sh = random_linear_sheaf(rng, include_full=False)
    top = sh.topology.full
    pb = sh.pullback(top.id)
    assert pb is not None
    a = Assignment(sh)
    for o in sh.topology.opens:
        if o.mask and o.id != top.id:
            a.values[o.id] = sample_point(sh.stalk(o.id), rng)
    res = fuse(a, FusionOptions(seed=4))
    assert consistency_radius(res.fused).radius <= 1e-6
    residual = sh._agreement_rows(pb) @ res.section_at_top.coords
    assert np.max(np.abs(residual)) <= 1e-6


def test_fuse_deterministic_under_seed():
    rng = random.Random(73)
    sh = random_linear_sheaf(rng)
    a = Assignment(sh)
    for o in sh.topology.opens:
        if o.mask:
            a.values[o.id] = sample_point(sh.stalk(o.id), rng)
    r1 = fuse(a, FusionOptions(seed=5))
    r2 = fuse(a, FusionOptions(seed=5))
    assert r1.section_at_top.coords == r2.section_at_top.coords
    assert r1.residual == r2.residual


def chain_snapshot(sh, rng):
    """A random global section (kernel coordinates with sigma 17) plus
    sensor noise 0.5 on every basis open."""
    top = sh.topology.full
    k = sh.kernel_basis(top.id)
    section = make_point(sh.stalk(top.id),
                         k @ rng.normal(0.0, 17.0, k.shape[1]))
    truth = pullback_global(sh, section)
    a = Assignment(sh)
    for b in sh.topology.basis:
        exact = truth.values[b.id]
        noisy = np.asarray(exact.coords) + rng.normal(
            0.0, 0.5, len(exact.coords))
        a.set(b, make_point(exact.space, noisy))
    return a


def test_pullback_top_fuses_near_minimax_optimum():
    """A constrained pullback top is fused by Lawson's iteration in
    kernel coordinates, and its certificate brackets the true minimax
    optimum."""
    sh = camera_chain_sheaf()
    assert sh.pullback(sh.topology.full.id).constraints
    rng = np.random.default_rng(1)
    tol = FusionOptions().f_tolerance
    for _ in range(6):
        a = chain_snapshot(sh, rng)
        res = fuse(a)
        assert res.route == "lawson"
        assert res.dual_bound <= minimax_optimum(a) <= res.residual + tol


def test_chain_snapshots_fuse_with_a_closed_certificate():
    """Every one of 96 chain snapshots converges under the default
    options: the certificate's lower bound is within f_tolerance of the
    residual, and on 12 of them it brackets the SLSQP optimum."""
    sh = camera_chain_sheaf()
    rng = np.random.default_rng(1)
    tol = FusionOptions().f_tolerance
    for i in range(96):
        a = chain_snapshot(sh, rng)
        res = fuse(a)
        assert res.route == "lawson" and res.converged, i
        assert res.dual_bound <= res.residual <= res.dual_bound + tol, i
        if i % 8 == 0:
            assert res.dual_bound <= minimax_optimum(a) <= \
                res.residual + tol, i


@pytest.mark.parametrize("seed", [1, 2])
def test_chain_snapshots_close_at_the_first_finish(seed):
    """The Newton finish starts from the log-barrier path, so its first
    try, at the first Lawson iterate, finds the active set: every chain
    snapshot closes its certificate at iteration 1."""
    sh = camera_chain_sheaf()
    rng = np.random.default_rng(seed)
    for i in range(96):
        res = fuse(chain_snapshot(sh, rng))
        assert res.converged and res.iterations == 1, i


def test_lawson_alone_closes_the_certificate(monkeypatch):
    """Without the Newton finish, Lawson's weight update still closes
    the certificate under the default options."""
    monkeypatch.setattr(fusion, "_central_point", lambda groups, x: None)
    sh = camera_chain_sheaf()
    res = fuse(chain_snapshot(sh, np.random.default_rng(1)))
    tol = FusionOptions().f_tolerance
    assert res.route == "lawson" and res.converged
    assert res.iterations > 1
    assert res.dual_bound <= res.residual <= res.dual_bound + tol


def test_central_point_weights_separate_the_active_groups():
    """On the barrier path an active group's weight stays near its
    multiplier and an inactive group's falls toward zero."""
    sh = camera_chain_sheaf()
    a = chain_snapshot(sh, np.random.default_rng(1))
    top, _, origin, basis = fusion._search_coordinates(sh)
    groups = fusion._Groups(sh, a, top, origin, basis)
    res = fuse(a)
    x_opt = basis.T @ (np.asarray(res.section_at_top.coords) - origin)
    r = groups.residuals(x_opt)
    active = r >= r.max() * (1 - 1e-9)
    x0 = groups.solve(np.ones(groups.count))
    _, lam = fusion._central_point(groups, x0)
    assert lam.sum() == pytest.approx(1.0)
    assert lam[active].min() > 1e3 * lam[~active].max()


def test_lawson_iteration_cap_leaves_the_certificate_open(monkeypatch):
    """Stopped by max_iterations, the route reports converged False
    with a lower bound that is still a bound.  The Newton finish is
    switched off, since it would close the certificate at once."""
    monkeypatch.setattr(fusion, "_central_point", lambda groups, x: None)
    sh = camera_chain_sheaf()
    a = chain_snapshot(sh, np.random.default_rng(1))
    res = fuse(a, FusionOptions(max_iterations=3))
    assert res.route == "lawson"
    assert (res.converged, res.iterations) == (False, 3)
    assert res.dual_bound < res.residual - FusionOptions().f_tolerance
    assert res.dual_bound <= minimax_optimum(a) <= res.residual


def weighted_product_sheaf():
    """Two cameras {a,b} and {b,c} reading the overlap {b} through one
    row each.  The {b,c} stalk is a product of a weighted line and a
    weighted time line, so the whole space, a pullback of both cameras,
    carries a product stalk with three differently weighted components."""
    u = EntityUniverse(["a", "b", "c"])
    t = generate_topology(u, [("a", "b"), ("b", "c")])
    ab, bc, b = t.open_for(["a", "b"]), t.open_for(["b", "c"]), \
        t.open_for(["b"])
    return complete_unions(Sheaf(
        t,
        {ab: euclidean(2, 2.0),
         bc: product([euclidean(1, 0.5), time_line(3.0)]),
         b: euclidean(1)},
        [RestrictionMap(ab, b, Linear([[1.0, 0.5]])),
         RestrictionMap(bc, b, Linear([[2.0, -1.0]]))],
    ))


def test_weighted_product_stalk_fuses_to_the_minimax_optimum():
    """Each component of a defined product stalk is its own group with
    its own weight: the Lawson residual is the assignment distance of
    the fused section and no worse than Nelder-Mead on the same
    objective."""
    sh = weighted_product_sheaf()
    top = sh.topology.full
    assert sh.stalk(top.id).components[1].weight == 0.5
    k = sh.kernel_basis(top.id)
    tol = FusionOptions().f_tolerance
    rng = random.Random(83)
    for _ in range(5):
        a = Assignment(sh, {o: sample_point(sh.stalk(o.id), rng)
                            for o in sh.topology.opens if o.mask})
        res = fuse(a)
        assert res.route == "lawson" and res.converged
        assert res.residual == pytest.approx(
            assignment_distance(res.fused, a), abs=1e-9)
        assert res.residual <= res.dual_bound + tol

        def objective(x):
            s = make_point(sh.stalk(top.id), k @ np.asarray(x))
            return assignment_distance(pullback_global(sh, s), a)

        run = nelder_mead(objective, [0.0] * k.shape[1])
        assert res.residual <= run.f + tol


def simplex_sheaf(mid_stalk, restriction):
    """{a} and the whole space {a,b}, which holds a simplex(3) and a time
    line; ``restriction`` reads {a} from the whole space."""
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid, top = t.open_for(["a"]), t.full
    sh = complete_unions(Sheaf(
        t, {mid: mid_stalk, top: product([simplex(3), time_line()])},
        [RestrictionMap(top, mid, Linear(restriction))],
    ))
    return sh, mid, top


@pytest.mark.parametrize("mid_reading, top_reading, residual", [
    pytest.param((0.2, 0.3, 0.5), (0.4, 0.3, 0.3, 7.0), 0.1, id="interior"),
    pytest.param((1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 7.0), 0.5, id="vertices"),
    pytest.param((0.9, 0.1, 0.0), (0.1, 0.9, 0.0, 7.0), 0.4, id="edge"),
])
def test_simplex_stalk_keeps_nelder_mead_and_fuses_to_a_global_section(
        mid_reading, top_reading, residual):
    """Simplex distance is half an L1 norm, outside Lawson's bound, so a
    defined simplex stalk keeps Nelder-Mead.  It searches where every
    simplex stalk sums to one: two readings of one distribution fuse to
    a distribution halfway between them, also when the optimum lies on
    the simplex's boundary, where a step off it scores as infinitely
    far."""
    sh, mid, top = simplex_sheaf(simplex(3), [[1.0, 0.0, 0.0, 0.0],
                                              [0.0, 1.0, 0.0, 0.0],
                                              [0.0, 0.0, 1.0, 0.0]])
    a = Assignment(sh, {
        mid: make_point(sh.stalk(mid.id), mid_reading),
        top: make_point(sh.stalk(top.id), top_reading),
    })
    res = fuse(a)
    assert res.route == "least_squares+nelder_mead"
    assert res.dual_bound is None
    assert consistency_radius(res.fused).radius <= 1e-6
    assert res.residual == pytest.approx(residual, abs=1e-6)


def test_fusion_started_off_the_simplexes_raises():
    """A start off the top stalk's simplex, such as a least-squares fit
    with a negative share or the zero start of a nonlinear sheaf, raises
    SpaceMismatch rather than searching from it."""
    sh, mid, top = simplex_sheaf(euclidean(1), [[1.0, 0.0, 0.0, 0.0]])
    a = Assignment(sh, {
        mid: make_point(sh.stalk(mid.id), [5.0]),
        top: make_point(sh.stalk(top.id), [1 / 3, 1 / 3, 1 / 3, 7.0]),
    })
    with pytest.raises(SpaceMismatch, match="nonnegative"):
        fuse(a)
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid = t.open_for(["a"])
    sh = complete_unions(Sheaf(
        t, {mid: euclidean(1), t.full: simplex(3)},
        [RestrictionMap(t.full, mid,
                        Builtin("square", lambda c: (c[0] ** 2,)))],
    ))
    a = Assignment(sh, {mid: make_point(sh.stalk(mid.id), [0.5])})
    with pytest.raises(SpaceMismatch, match="sum to 1"):
        fuse(a)


def test_global_assignment_without_top_value_is_already_global():
    rng = random.Random(77)
    sh = random_linear_sheaf(rng, include_full=False)
    top = sh.topology.full
    assert sh.pullback(top.id).constraints
    a = pullback_global(sh, sh.sample_stalk(top.id, rng))
    del a.values[top.id]
    res = fuse(a)
    assert res.route == "already_global"
    assert res.iterations == 0
    assert res.residual <= 1e-9


def test_nan_distance_stops_fusion_at_once():
    """The first objective evaluation meets the NaN and raises, before
    any simplex run."""
    calls = []
    sh = nan_sheaf(calls)
    a = Assignment(sh, {o: make_point(sh.stalk(o.id), [1.0])
                        for o in sh.topology.opens if o.mask})
    with pytest.raises(SpaceMismatch,
                       match=r"on \{a\} to the restriction from \{a,b\}"):
        fuse(a)
    assert len(calls) == 1


def test_native_union_sheaves_glue_and_fuse():
    """Every union W without a stalk, short of the whole space, of
    4-entity random sheaves with a pullback whole space, given a stalk
    of its own: the gluing verdict is the all-pairs oracle's, the
    full-cover Betti table is that of the sheaf without W's stalk, and
    fusion ends on a global section."""
    cases = 0
    for seed in range(20):
        base = random_linear_sheaf(random.Random(seed), n_entities=4,
                                   include_full=False)
        t = base.topology
        for w in t.opens:
            if not w.mask or w == t.full or base.pullback(w.id) is None:
                continue
            cases += 1
            sh = with_native_union(base, w.id)
            assert verify_gluing(sh).ok == all_pairs_gluing(sh).ok
            assert betti(sh, full_cover(t), 2).betti == \
                betti(base, full_cover(t), 2).betti
            rng = random.Random(seed)
            a = Assignment(sh, {o: sample_point(sh.stalk(o.id), rng)
                                for o in t.basis + (w, t.full)})
            res = fuse(a, FusionOptions(restarts=1))
            assert consistency_radius(res.fused).radius <= 1e-6, (seed, w)
    assert cases == 12
