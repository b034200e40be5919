import collections
import math
import random

import numpy as np
import pytest

from conftest import (
    boundary_start_assignment,
    two_camera_simplex_assignments,
    camera_chain_sheaf,
    lifted_sar_cases,
    nan_sheaf,
    noisy_sar_snapshots,
    random_linear_sheaf,
    with_native_union,
)
from oracles import (
    NelderMeadOptions,
    all_pairs_gluing,
    assignment_distance,
    factor_distances,
    full_cover,
    layered_distances,
    lipschitz_bound,
    lp_fusion_optimum,
    minimax_optimum,
    nelder_mead,
    nonlinear_minimax,
    reference_minimax_step,
    sample_stalk,
)
from sheaffuse import (
    Assignment,
    Builtin,
    EntityUniverse,
    Identity,
    Linear,
    Projection,
    RestrictionMap,
    Sheaf,
    betti,
    circle,
    consistency_radius,
    discrete,
    euclidean,
    fuse,
    fusion,
    generate_topology,
    make_point,
    product,
    pullback_global,
    sample_point,
    simplex,
    time_line,
    verify_gluing,
)
from sheaffuse import sheaf as sheaf_module
from sheaffuse._kernels import circle_dist_deg
from sheaffuse.errors import DegenerateAssignment, NoTopStalk, SpaceMismatch
from sheaffuse.fusion import FusionOptions
from sheaffuse.scenarios import build_sar_sheaf, sar_case_assignment


def test_quadratic_minimum():
    res = nelder_mead(lambda x: (x[0] - 3.0) ** 2 + (x[1] + 2.0) ** 2,
                      [0.0, 0.0], opts=NelderMeadOptions(f_tolerance=1e-12))
    assert res.x[0] == pytest.approx(3.0, abs=1e-5)
    assert res.x[1] == pytest.approx(-2.0, abs=1e-5)


def test_rosenbrock():
    res = nelder_mead(
        lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2,
        [-1.2, 1.0],
        opts=NelderMeadOptions(max_iterations=5000),
    )
    assert res.x[0] == pytest.approx(1.0, abs=1e-3)
    assert res.x[1] == pytest.approx(1.0, abs=1e-3)


def test_one_dimensional_minimax():
    res = nelder_mead(lambda x: max(abs(x[0]), abs(x[0] - 2.0)), [10.0])
    assert res.x[0] == pytest.approx(1.0, abs=1e-5)
    assert res.f == pytest.approx(1.0, abs=1e-6)


def test_fusion_on_a_circle_wraps_the_section():
    """The sqp route searches the angle unwrapped; the stalk wraps every
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
    assert res.route == "sqp" and res.converged
    assert 0.0 <= angle < 360.0
    assert res.residual == max(circle_dist_deg(angle, 350.0),
                               circle_dist_deg(angle, 10.0))
    assert res.residual == pytest.approx(10.0, abs=1e-6)


def test_iteration_cap_flags_nonconvergence():
    res = nelder_mead(lambda x: (x[0] - 1e6) ** 2, [0.0],
                      opts=NelderMeadOptions(max_iterations=3, restarts=1))
    assert not res.converged


def test_determinism_under_fixed_seed():
    rough = lambda x: max(abs(x[0] - 1.0), abs(x[1] + 2.0), 0.5 * abs(x[0]))
    a = nelder_mead(rough, [10.0, 10.0], opts=NelderMeadOptions(seed=9))
    b = nelder_mead(rough, [10.0, 10.0], opts=NelderMeadOptions(seed=9))
    assert a.x == b.x and a.f == b.f


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_options_reject_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="f_tolerance"):
        FusionOptions(f_tolerance=tol)


def identity_chain_sheaf():
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid, top = t.open_for(["a"]), t.full
    sh = Sheaf(
        t, {mid: euclidean(1), top: euclidean(1)},
        [RestrictionMap(top, mid, Identity())],
    )
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
    assert res.route == "sqp" and res.dual_bound is not None
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
        res = fuse(a, FusionOptions())
        assert consistency_radius(res.fused).radius <= 1e-6
        if res.route == "sqp":
            assert res.converged and res.dual_bound is not None
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
    res = fuse(a, FusionOptions())
    for _ in range(10):
        candidate = sample_point(sh.stalk(top.id), rng)
        alt = assignment_distance(pullback_global(sh, candidate), a)
        assert res.residual <= alt + 1e-9


def test_lower_bound_holds_on_random_linear_sheaves():
    rng = random.Random(71)
    for _ in range(15):
        sh = random_linear_sheaf(rng)
        a = Assignment(sh)
        for o in sh.topology.opens:
            if o.mask:
                a.values[o.id] = sample_point(sh.stalk(o.id), rng)
        k = lipschitz_bound(sh)
        res = fuse(a, FusionOptions())
        radius = consistency_radius(a).radius
        assert res.residual >= radius / (1.0 + k) - 1e-9


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
    res = fuse(a, FusionOptions())
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
    r1 = fuse(a, FusionOptions())
    r2 = fuse(a, FusionOptions())
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


def test_fuse_builds_no_union_but_the_whole_space(monkeypatch):
    """A cold fuse on an 8-camera chain (1,597 opens) lays out the
    whole space's parts and no other union's, and what it returns
    defines exactly the whole space and the native opens."""
    sh = camera_chain_sheaf(cameras=8)
    t = sh.topology
    rng = np.random.default_rng(5)
    a = Assignment(sh, {b: make_point(sh.stalk(b.id),
                                      rng.normal(0.0, 17.0,
                                                 sh.stalk(b.id).dim))
                        for b in t.basis})
    built = []
    original = sheaf_module._pullback

    def counting(sh, mask):
        built.append(mask)
        return original(sh, mask)

    monkeypatch.setattr(sheaf_module, "_pullback", counting)
    res = fuse(a)
    assert built == [t.full.mask]
    assert set(res.fused.values) == {t.full.id, *sh.native_ids()}
    assert len(res.fused.values) == 16 < len(t.opens) == 1597


def test_pullback_top_fuses_near_minimax_optimum():
    """A constrained pullback top is fused on the sqp route in kernel
    coordinates, and its certificate brackets the true minimax
    optimum."""
    sh = camera_chain_sheaf()
    assert sh.pullback(sh.topology.full.id).constraints
    rng = np.random.default_rng(1)
    tol = FusionOptions().f_tolerance
    for _ in range(6):
        a = chain_snapshot(sh, rng)
        res = fuse(a)
        assert res.route == "sqp" and res.dual_bound is not None
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
        assert res.route == "sqp" and res.dual_bound is not None, i
        assert res.converged, i
        assert res.dual_bound <= res.residual <= res.dual_bound + tol, i
        if i % 8 == 0:
            assert res.dual_bound <= minimax_optimum(a) <= \
                res.residual + tol, i


@pytest.mark.parametrize("seed", [1, 2])
def test_chain_snapshots_close_at_the_first_finish(seed):
    """The sqp route starts from the least-squares fit, every group
    weighted alike, and takes exact curvature: every chain snapshot
    closes its certificate within 8 iterations (1 to 10 over 960
    snapshots of seeds 1-10, where 9 or 10 only on seeds 4, 6 and 7; at
    most 6 on seeds 1 and 2)."""
    sh = camera_chain_sheaf()
    rng = np.random.default_rng(seed)
    for i in range(96):
        res = fuse(chain_snapshot(sh, rng))
        assert res.converged and 0 < res.iterations <= 8, i


def test_lawson_alone_closes_the_certificate():
    """The sqp route closes Lawson's certificate from the least-squares
    fit under the default options."""
    sh = camera_chain_sheaf()
    res = fuse(chain_snapshot(sh, np.random.default_rng(1)))
    tol = FusionOptions().f_tolerance
    assert res.route == "sqp" and res.converged
    assert res.iterations > 1
    assert res.dual_bound <= res.residual <= res.dual_bound + tol


def test_linear_fuse_without_a_simplex_runs_no_barrier(monkeypatch):
    """A linear sheaf with no simplex stalk goes straight to the sqp
    route from the least-squares fit: the barrier's central path is
    never followed."""
    def refuse(*args):
        raise AssertionError("_central_point called")

    monkeypatch.setattr(fusion, "_central_point", refuse)
    sh = camera_chain_sheaf()
    rng = np.random.default_rng(1)
    for i in range(8):
        res = fuse(chain_snapshot(sh, rng))
        assert res.route == "sqp" and res.converged, i


def test_lawson_iteration_cap_leaves_the_certificate_open():
    """Stopped by max_iterations, the sqp route reports converged False
    with a lower bound that is still a bound."""
    sh = camera_chain_sheaf()
    a = chain_snapshot(sh, np.random.default_rng(1))
    res = fuse(a, FusionOptions(max_iterations=1))
    assert res.route == "sqp"
    assert (res.converged, res.iterations) == (False, 1)
    assert res.dual_bound < res.residual - FusionOptions().f_tolerance
    assert res.dual_bound <= minimax_optimum(a) <= res.residual


def test_sqp_model_takes_a_rounding_multiplier_as_zero():
    """On chain seed 10 snapshot 3 a group is weakly active at the third
    model's solution, with multiplier -5e-17.  Taken as negative, it
    leaves the model's working set and re-enters at once until the
    model gives up, and the route stopped with the certificate open by
    5e-6."""
    sh = camera_chain_sheaf()
    rng = np.random.default_rng(10)
    for _ in range(4):
        a = chain_snapshot(sh, rng)
    res = fuse(a)
    assert res.route == "sqp" and res.converged
    assert res.residual - res.dual_bound <= FusionOptions().f_tolerance


def weighted_product_sheaf():
    """Two cameras {a,b} and {b,c} reading the overlap {b} through one
    row each.  The {b,c} stalk is a product of a weighted line and a
    weighted time line, so the whole space, a pullback of both cameras,
    carries a product stalk with three differently weighted components."""
    u = EntityUniverse(["a", "b", "c"])
    t = generate_topology(u, [("a", "b"), ("b", "c")])
    ab, bc, b = t.open_for(["a", "b"]), t.open_for(["b", "c"]), \
        t.open_for(["b"])
    return Sheaf(
        t,
        {ab: euclidean(2, 2.0),
         bc: product([euclidean(1, 0.5), time_line(3.0)]),
         b: euclidean(1)},
        [RestrictionMap(ab, b, Linear([[1.0, 0.5]])),
         RestrictionMap(bc, b, Linear([[2.0, -1.0]]))],
    )


def test_weighted_product_stalk_fuses_to_the_minimax_optimum():
    """Each component of a defined product stalk is its own group with
    its own weight: the fused residual is the assignment distance of
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
        assert res.route == "sqp" and res.converged
        assert res.dual_bound is not None
        assert res.residual == pytest.approx(
            assignment_distance(res.fused, a), abs=1e-9)
        assert res.residual <= res.dual_bound + tol
        run = nelder_mead(lambda x: factor_distances(a, k @ x).max(),
                          [0.0] * k.shape[1])
        assert res.residual <= run.f + tol


def test_group_derivatives_match_central_differences():
    """The linear sqp route's exact derivatives: ``_Groups.jacobian`` and
    ``_Groups.hessian`` (less its ridge) match central differences of
    ``_Groups.residuals`` on random linear sheaves and the weighted
    product sheaf.  A group of one row has a zero Hessian, so dropping
    the grad r grad r^T term fails here.  At a point where a group's
    residual is exactly 0 its Jacobian row is zero, and it adds nothing
    to the Hessian, without a division by zero."""
    rng = random.Random(89)
    sheaves = [random_linear_sheaf(rng, include_full=i % 2 == 0)
               for i in range(6)] + [weighted_product_sheaf()]
    h = 1e-4
    for case, sh in enumerate(sheaves):
        a = Assignment(sh, {o: sample_point(sh.stalk(o.id), rng)
                            for o in sh.topology.opens
                            if o.mask and sh.stalk(o.id).dim})
        top, _, origin, basis = fusion._search_coordinates(sh)
        groups = fusion._Groups(sh, a, top, origin, basis)
        n = basis.shape[1]
        steps = h * np.eye(n)
        x = np.array([rng.gauss(0.0, 2.0) for _ in range(n)])
        lam = np.array([rng.random() for _ in range(groups.count)])

        def weighted(x):
            return lam @ groups.residuals(x)

        jac = np.array([groups.residuals(x + e) - groups.residuals(x - e)
                        for e in steps]).T / (2.0 * h)
        assert np.allclose(groups.jacobian(x), jac, rtol=1e-6,
                           atol=1e-8), case
        hess = np.array([[weighted(x + e + f) - weighted(x + e - f)
                          - weighted(x - e + f) + weighted(x - e - f)
                          for f in steps] for e in steps]) / (4.0 * h * h)
        exact = groups.hessian(x, lam, groups.jacobian(x))
        scale = np.abs(exact).max()
        assert np.allclose(exact, hess, rtol=1e-4, atol=1e-5 * scale), case

        # at x = 0 with group 0's right-hand side 0 its residual is 0
        groups.rhs[groups.group == 0] = 0.0
        zero = np.zeros(n)
        assert groups.residuals(zero)[0] == 0.0
        jac = groups.jacobian(zero)
        assert np.all(jac[0] == 0.0), case
        assert np.allclose(jac, np.array(
            [groups.residuals(e) - groups.residuals(-e) for e in steps]).T
            / (2.0 * h), rtol=1e-6, atol=1e-8), case
        without = lam.copy()
        without[0] = 0.0
        assert np.array_equal(groups.hessian(zero, lam, jac),
                              groups.hessian(zero, without, jac)), case


def simplex_sheaf(mid_stalk, restriction):
    """{a} and the whole space {a,b}, which holds a simplex(3) and a time
    line; ``restriction`` reads {a} from the whole space."""
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid, top = t.open_for(["a"]), t.full
    sh = Sheaf(
        t, {mid: mid_stalk, top: product([simplex(3), time_line()])},
        [RestrictionMap(top, mid, Linear(restriction))],
    )
    return sh, mid, top


@pytest.mark.parametrize("mid_reading, top_reading, residual", [
    pytest.param((0.2, 0.3, 0.5), (0.4, 0.3, 0.3, 7.0), 0.1, id="interior"),
    pytest.param((1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 7.0), 0.5, id="vertices"),
    pytest.param((0.9, 0.1, 0.0), (0.1, 0.9, 0.0, 7.0), 0.4, id="edge"),
])
def test_simplex_stalk_fuses_on_the_barrier_route_to_a_global_section(
        mid_reading, top_reading, residual):
    """Simplex distance is half an L1 norm, so a defined simplex stalk
    is fused on the barrier route, where every simplex stalk sums to one
    and stays nonnegative: two readings of one distribution fuse to a
    distribution halfway between them, also when the optimum lies on the
    simplex's boundary, and the certificate closes on the linear
    program's optimum."""
    sh, mid, top = simplex_sheaf(simplex(3), [[1.0, 0.0, 0.0, 0.0],
                                              [0.0, 1.0, 0.0, 0.0],
                                              [0.0, 0.0, 1.0, 0.0]])
    a = Assignment(sh, {
        mid: make_point(sh.stalk(mid.id), mid_reading),
        top: make_point(sh.stalk(top.id), top_reading),
    })
    res = fuse(a)
    tol = FusionOptions().f_tolerance
    assert res.route == "barrier" and res.converged
    assert res.dual_bound <= lp_fusion_optimum(a) <= res.residual <= \
        res.dual_bound + tol
    assert consistency_radius(res.fused).radius <= 1e-6
    assert res.residual == pytest.approx(residual, abs=1e-6)


def test_fit_off_the_simplexes_fuses_but_a_start_off_them_raises():
    """A reading of 5 for a share, whose least-squares fit leaves the
    simplex, fuses from inside the simplex to the share's bound, 1, 4
    from the reading; the zero start of a nonlinear sheaf off the top
    stalk's simplex still raises SpaceMismatch rather than searching."""
    sh, mid, top = simplex_sheaf(euclidean(1), [[1.0, 0.0, 0.0, 0.0]])
    a = Assignment(sh, {
        mid: make_point(sh.stalk(mid.id), [5.0]),
        top: make_point(sh.stalk(top.id), [1 / 3, 1 / 3, 1 / 3, 7.0]),
    })
    res = fuse(a)
    assert res.route == "barrier" and res.converged
    assert res.residual == pytest.approx(4.0, abs=1e-6)
    assert res.section_at_top.coords[0] == pytest.approx(1.0, abs=1e-6)
    assert consistency_radius(res.fused).radius <= 1e-6
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid = t.open_for(["a"])
    sh = Sheaf(
        t, {mid: euclidean(1), t.full: simplex(3)},
        [RestrictionMap(t.full, mid,
                        Builtin("square", lambda c: (c[0] ** 2,)))],
    )
    a = Assignment(sh, {mid: make_point(sh.stalk(mid.id), [0.5])})
    with pytest.raises(SpaceMismatch, match="sum to 1"):
        fuse(a)


def test_lifted_sar_cases_fuse_to_the_linear_programs_optimum():
    """The SAR sheaf's stochastic linearization at 2 bins (a simplex(64)
    whole space, 116 distance rows), with each recorded case read as
    point masses, fuses on the barrier route to the optimum of the same
    linear program under HiGHS, inside a closed certificate."""
    _, cases = lifted_sar_cases(2)
    tol = FusionOptions().f_tolerance
    for case, a in enumerate(cases, 1):
        res = fuse(a)
        assert res.route == "barrier" and res.converged, case
        assert res.dual_bound <= lp_fusion_optimum(a) <= res.residual <= \
            res.dual_bound + tol, case
        assert 0 < res.evaluations and 0 < res.iterations <= \
            FusionOptions().max_iterations, case


def test_a_start_off_the_simplexes_is_not_scored(monkeypatch):
    """Draw 1 of the two-camera family: its least-squares fit and the
    start nearest the uniform shares both restrict off a simplex.  The
    start is not scored, where its distance would raise on coordinates
    the user never gave; the barrier route finds no start strictly
    inside the simplexes and says so, having tried the one start once."""
    central_point, calls = fusion._central_point, []

    def spy(groups, x, opts):
        calls.append(x)
        return central_point(groups, x, opts)

    monkeypatch.setattr(fusion, "_central_point", spy)
    a = list(two_camera_simplex_assignments(2))[1]
    with pytest.raises(SpaceMismatch) as err:
        fuse(a)
    assert str(err.value) == "no start lies strictly inside the simplexes"
    assert len(calls) == 1


def test_barrier_keeps_every_stalks_simplex_nonnegative():
    """A whole space of time lines read onto a simplex: its reading, and
    so the start it gives, has a share below zero there.  The route
    starts inside the simplex instead, keeps the restriction onto it
    nonnegative, and reaches the linear program's optimum."""
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid = t.open_for(["a"])
    lines = product([time_line(), time_line(0.5), time_line()])
    sh = Sheaf(t, {mid: simplex(3), t.full: lines},
               [RestrictionMap(t.full, mid, Identity())])
    a = Assignment(sh, {mid: make_point(simplex(3), (0.2, 0.3, 0.5)),
                        t.full: make_point(lines, (2.0, -1.0, 0.0))})
    res = fuse(a)
    assert res.route == "barrier" and res.converged
    assert min(res.fused.values[mid.id].coords) >= 0.0
    assert res.dual_bound <= lp_fusion_optimum(a) <= res.residual <= \
        res.dual_bound + FusionOptions().f_tolerance

def test_barrier_starts_from_the_fit_off_the_uniform_shares(monkeypatch):
    """Two cameras, simplex(4) on {a,v} and simplex(3, 2.0) on {b,v},
    read a simplex(2) overlap {v} through column-stochastic maps; the
    whole space is their constrained pullback.  The point nearest the
    uniform shares lies off the floor, so the route starts from the
    least-squares fit, which lies inside, and closes its certificate on
    the linear program's optimum.  (The 42nd sheaf, of 3,000 drawn from
    this family with random.Random(11), each native open read with
    probability 0.8, where 29 took this start.)"""
    t = generate_topology(EntityUniverse(["a", "b", "v"]),
                          [("a", "v"), ("b", "v")])
    cam_a, cam_b, v = (t.open_for(names) for names in
                       (["a", "v"], ["b", "v"], ["v"]))
    stalks = {cam_a: simplex(4), cam_b: simplex(3, 2.0), v: simplex(2)}
    sh = Sheaf(t, stalks, [
        RestrictionMap(cam_a, v, Linear([
            [0.6330420929734799, 0.34200480794584615, 0.4550583309713101,
             0.9783175754961774],
            [0.3669579070265201, 0.6579951920541539, 0.5449416690286899,
             0.02168242450382259]])),
        RestrictionMap(cam_b, v, Linear([
            [0.34055365574456253, 0.4510894020283599, 0.4515249423492178],
            [0.6594463442554375, 0.5489105979716402, 0.5484750576507822]]))])
    a = Assignment(sh, {o: make_point(stalks[o], coords) for o, coords in [
        (cam_a, (0.1188362651899, 0.3259228368518387, 0.1567136478477579,
                 0.39852725011050333)),
        (cam_b, (0.24868099387581702, 0.03497704629542514,
                 0.7163419598287578)),
        (v, (0.5449265524035152, 0.4550734475964849))]})
    central_point, found = fusion._central_point, []

    def spy(groups, x, opts):
        out = central_point(groups, x, opts)
        found.append(out is not None)
        return out

    monkeypatch.setattr(fusion, "_central_point", spy)
    res = fuse(a)
    assert found == [False, True]
    assert res.route == "barrier" and res.converged
    assert res.dual_bound <= lp_fusion_optimum(a) <= res.residual <= \
        res.dual_bound + FusionOptions().f_tolerance


def test_barrier_with_no_start_strictly_inside_raises():
    """Neither the uniform shares nor the reading lie strictly inside
    the simplexes (``boundary_start_assignment``): SpaceMismatch, though
    a point strictly inside exists."""
    with pytest.raises(SpaceMismatch, match="^no start lies strictly "
                       "inside the simplexes$"):
        fuse(boundary_start_assignment())


def test_barrier_iteration_cap_leaves_the_certificate_open():
    """Stopped by max_iterations, the route reports converged False and
    a lower bound that is still a bound."""
    sh, mid, top = simplex_sheaf(simplex(3), [[1.0, 0.0, 0.0, 0.0],
                                              [0.0, 1.0, 0.0, 0.0],
                                              [0.0, 0.0, 1.0, 0.0]])
    a = Assignment(sh, {
        mid: make_point(sh.stalk(mid.id), (1.0, 0.0, 0.0)),
        top: make_point(sh.stalk(top.id), (0.0, 1.0, 0.0, 7.0)),
    })
    res = fuse(a, FusionOptions(max_iterations=10))
    assert res.route == "barrier"
    assert (res.converged, res.iterations) == (False, 10)
    assert res.dual_bound <= 0.5 <= res.residual


def test_nonlinear_sheaf_with_a_discrete_or_simplex_factor_is_refused():
    """A discrete distance is 0 or its weight, and a simplex needs the
    linear structure of the barrier route: fusing either on a nonlinear
    sheaf raises SpaceMismatch naming the open and the factor's kind."""
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid = t.open_for(["a"])
    labels = discrete(["red", "green"])
    sh = Sheaf(t, {mid: labels, t.full: labels},
               [RestrictionMap(t.full, mid, Identity())])
    a = Assignment(sh, {mid: make_point(labels, [0.0]),
                        t.full: make_point(labels, [1.0])})
    with pytest.raises(SpaceMismatch,
                       match=r"on \{a,b\} has a discrete factor"):
        fuse(a)
    sh = Sheaf(
        t, {mid: simplex(2), t.full: euclidean(1)},
        [RestrictionMap(t.full, mid,
                        Builtin("split", lambda c: (c[0] ** 2,
                                                    1.0 - c[0] ** 2)))],
    )
    a = Assignment(sh, {mid: make_point(simplex(2), [0.25, 0.75])})
    with pytest.raises(SpaceMismatch,
                       match=r"on \{a\} has a simplex factor"):
        fuse(a)

def test_global_assignment_without_top_value_is_already_global():
    rng = random.Random(77)
    sh = random_linear_sheaf(rng, include_full=False)
    top = sh.topology.full
    assert sh.pullback(top.id).constraints
    a = pullback_global(sh, sample_stalk(sh, top.id, rng))
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
    calls.clear()  # the call that probed the builtin when it was built
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
            res = fuse(a)
            assert consistency_radius(res.fused).radius <= 1e-6, (seed, w)
    assert cases == 12


SAR = build_sar_sheaf()
SAR_TOP = SAR.topology.full.id
# the residual the sqp route must reach on each recorded case without
# its whole-space reading, started from zero
NO_TOP_CAPS = {1: 2.4818, 2: 8.8637, 3: 38.961}


def assert_at_the_slsqp_optimum_and_below_nelder_mead(a, res):
    """The sqp residual is within 1e-6 relative of SLSQP's best from the
    same start and from Nelder-Mead's answer on the same objective, the
    library's former route, and at most Nelder-Mead's largest distance
    times 1 + 1e-6."""
    start = (a.values[SAR_TOP].coords if SAR_TOP in a.values
             else [0.0] * SAR.stalk(SAR_TOP).dim)
    nm = nelder_mead(lambda x: factor_distances(a, x).max(), start)
    nm_section = make_point(SAR.stalk(SAR_TOP), nm.x).coords
    best = nonlinear_minimax(a, [start, nm_section])
    assert res.residual == pytest.approx(best, rel=1e-6)
    assert res.residual <= nm.f * (1.0 + 1e-6)


@pytest.mark.parametrize("with_top", [True, False])
@pytest.mark.parametrize("case", [1, 2, 3])
def test_sqp_fuses_the_sar_cases_to_the_optimum(case, with_top):
    """Without the whole-space reading the search starts from zero,
    thousands of km away, and still converges to the optimum."""
    a = sar_case_assignment(SAR, case)
    if not with_top:
        del a.values[SAR_TOP]
    res = fuse(a)
    assert res.route == "sqp" and res.converged
    assert_at_the_slsqp_optimum_and_below_nelder_mead(a, res)
    if not with_top:
        assert res.residual <= NO_TOP_CAPS[case]


def test_sqp_fuses_noisy_sar_snapshots_to_the_optimum():
    for i, a in enumerate(noisy_sar_snapshots(SAR, 12, 2016)):
        res = fuse(a)
        assert res.route == "sqp" and res.converged, i
        assert_at_the_slsqp_optimum_and_below_nelder_mead(a, res)


def test_sqp_iteration_cap_flags_nonconvergence():
    a = sar_case_assignment(SAR, 1)
    res = fuse(a, FusionOptions(max_iterations=2))
    assert res.route == "sqp"
    assert (res.converged, res.iterations) == (False, 2)
    # every kept step lowers the largest distance
    assert res.residual < factor_distances(a, a.values[SAR_TOP].coords).max()


def test_sqp_is_deterministic_and_ignores_restarts_and_seed():
    (a,) = noisy_sar_snapshots(SAR, 1, 7)
    runs = [fuse(a), fuse(a), fuse(a, FusionOptions(seed=9))]
    assert len({(r.section_at_top.coords, r.residual, r.iterations,
                 r.evaluations) for r in runs}) == 1


def test_evaluations_count_the_routes_own_work(monkeypatch):
    """``evaluations`` is the number of distance vectors the sqp route
    scored, on a nonlinear and on a linear sheaf."""
    vectors = []
    sqp = fusion._sqp

    def counting_sqp(distances, *args):
        def counted(x):
            vectors.append(x)
            return distances(x)
        return sqp(counted, *args)

    monkeypatch.setattr(fusion, "_sqp", counting_sqp)
    res = fuse(sar_case_assignment(SAR, 2))
    assert res.route == "sqp" and res.evaluations == len(vectors)
    # the Jacobian costs one vector per coordinate on each iteration
    assert res.evaluations > res.iterations * SAR.stalk(SAR_TOP).dim

    vectors.clear()
    sh = camera_chain_sheaf()
    res = fuse(chain_snapshot(sh, np.random.default_rng(1)))
    assert res.route == "sqp" and res.evaluations == len(vectors)
    assert res.evaluations >= res.iterations > 0


def test_sqp_keeps_a_repeated_distance_out_of_its_working_set():
    """Both velocity readings of this snapshot are noise-free and equal,
    so two distances are one function.  When one is in the step's
    working set, rounding gives the other a tiny rate; it must not
    enter, which would make the step's system singular and stop the
    search at 16.98, over twice Nelder-Mead's 7.372."""
    a = noisy_sar_snapshots(SAR, 86, 1)[85]
    res = fuse(a)
    assert res.route == "sqp" and res.converged
    assert res.residual < 7.3722


def test_sqp_corrects_steps_along_curved_active_distances(monkeypatch):
    """Five distances are active at this snapshot's optimum, and one of
    them curves sharply along the model's step, so every full step
    overshoots it.  Halving alone takes 73 iterations, one correction
    per step 55; two take 13 and reach the optimum."""
    a = noisy_sar_snapshots(SAR, 52, 9)[51]
    with monkeypatch.context() as m:
        m.setattr(fusion, "CORRECTIONS", 0)
        assert fuse(a).iterations > 50
    res = fuse(a)
    assert res.route == "sqp" and res.converged
    assert res.iterations <= 16
    assert_at_the_slsqp_optimum_and_below_nelder_mead(a, res)


def test_sqp_stops_when_its_steps_stop_gaining(monkeypatch):
    """Near this snapshot's optimum the model keeps predicting a
    decrease of about 4e-7, ten times f_tolerance, that its steps never
    deliver: each gains about 5e-10.  Without the stall stop it runs
    435 iterations; eight such steps in a row end it."""
    a = noisy_sar_snapshots(SAR, 79, 119)[78]
    with monkeypatch.context() as m:
        m.setattr(fusion, "STALLS", 10 ** 6)
        assert fuse(a).iterations > 400
    res = fuse(a)
    assert res.route == "sqp" and res.converged
    assert res.iterations <= 30
    assert_at_the_slsqp_optimum_and_below_nelder_mead(a, res)


def test_sqp_cost_is_steady_over_noisy_snapshots():
    """No snapshot costs far more than the others, so the rate of a
    stream does not hang on which snapshots it draws.  Without the
    corrections snapshot 69 takes 280 evaluations, 4.4 times the
    median."""
    evaluations = [fuse(a).evaluations
                   for a in noisy_sar_snapshots(SAR, 96, 1)]
    assert max(evaluations) <= 2.5 * np.median(evaluations)


def test_sqp_backtracks_from_steps_where_a_distance_overflows():
    """A trial point whose distances are infinite is a rejected step."""
    rejected = []

    def distances(x):
        (v,) = x
        if abs(v) > 5.0:
            rejected.append(v)
            return [math.inf]
        return [(v - 1.0) ** 2 + 1.0]

    # the first model, with a small curvature, steps from 3 to -22
    x, _, _, converged, _ = fusion._sqp(distances, fusion._differences,
                                        fusion._bfgs, [3.0], FusionOptions())
    assert converged and rejected[0] == pytest.approx(-22.0)
    assert x[0] == pytest.approx(1.0, abs=1e-6)


def test_sqp_restarts_its_curvature_when_a_step_fails(monkeypatch):
    """When the model finds no step after a kept one, the curvature
    restarts afresh at the same point and the search goes on; it ends
    unconverged only when a model just restarted fails too."""
    log, fails = [], {2}
    step = fusion._minimax_step

    def failing(d, jac, b, guess=()):
        log.append("step")
        return None if log.count("step") in fails else \
            step(d, jac, b, guess)

    def curvature(x, jac, lam, last):
        log.append("fresh" if last is None else "update")
        return fusion._bfgs(x, jac, lam, last)

    def distances(x):
        u, v = x
        return [(u - 1.0) ** 2 + v * v, (u + 1.0) ** 2 + v * v]

    monkeypatch.setattr(fusion, "_minimax_step", failing)
    x, _, _, converged, _ = fusion._sqp(distances, fusion._differences,
                                        curvature, [3.0, 2.0],
                                        FusionOptions())
    assert log[:6] == ["fresh", "step", "update", "step", "fresh", "step"]
    assert converged and np.allclose(x, [0.0, 0.0], atol=1e-4)
    log.clear()
    fails = {2, 3}
    x, iterations, _, converged, _ = fusion._sqp(
        distances, fusion._differences, curvature, [3.0, 2.0],
        FusionOptions())
    assert log == ["fresh", "step", "update", "step", "fresh", "step"]
    assert (iterations, converged) == (3, False)


def test_sqp_ends_at_a_start_whose_jacobian_is_not_finite():
    """The distance is finite at the start alone, so its differences
    are not, and the search ends there before any iteration."""
    def distances(x):
        return [1.0 if x[0] == 2.0 else math.inf]

    x, iterations, evaluations, converged, lower = fusion._sqp(
        distances, fusion._differences, fusion._bfgs, [2.0],
        FusionOptions())
    assert list(x) == [2.0]
    assert (iterations, evaluations, converged, lower) == (0, 2, False,
                                                          None)


def test_fuse_refuses_a_nonlinear_whole_space_of_overlapping_parts():
    """The whole space has no stalk of its own, and its parts overlap on
    c, one of them through a builtin, so its stalk is a constrained
    pullback of a nonlinear sheaf: the agreement set has no coordinates,
    to search or to sample."""
    u = EntityUniverse(["a", "b", "c"])
    t = generate_topology(u, [("a", "c"), ("b", "c")])
    left, right, mid = (t.open_for(n) for n in (["a", "c"], ["b", "c"],
                                                ["c"]))
    sh = Sheaf(t, {left: euclidean(2), right: euclidean(2),
                   mid: euclidean(1)},
               [RestrictionMap(left, mid,
                               Builtin("shift", lambda c: (c[1] + 1.0,))),
                RestrictionMap(right, mid, Projection([0]))])
    assert not sh.is_linear() and sh.pullback(t.full.id).constraints
    assert sample_stalk(sh, t.full.id, random.Random(0)) is None
    a = Assignment(sh, {mid: make_point(euclidean(1), [1.0])})
    with pytest.raises(NoTopStalk, match="constrained pullback"):
        fuse(a)


def test_sqp_on_a_whole_space_without_coordinates():
    """Nothing to search: the first model predicts no decrease."""
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid, top = t.open_for(["a"]), t.full
    sh = Sheaf(t, {mid: euclidean(1), top: euclidean(0)},
               [RestrictionMap(top, mid, Builtin("five", lambda c: (5.0,)))])
    res = fuse(Assignment(sh, {mid: make_point(euclidean(1), [1.0])}))
    assert (res.route, res.converged, res.residual) == ("sqp", True, 4.0)


def sqp_models(assignments):
    """Every model (d, J, B, guess) that fusing ``assignments`` poses to
    ``_minimax_step``."""
    models = []
    step = fusion._minimax_step

    def spy(d, jac, b, guess=()):
        models.append((d.copy(), jac.copy(), b.copy(), tuple(guess)))
        return step(d, jac, b, guess)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(fusion, "_minimax_step", spy)
        for a in assignments:
            fuse(a)
    return models


def model_bits(found):
    """A model's solution (p, t, lam) as float hex, or None."""
    if found is None:
        return None
    p, t, lam = found
    return hexes(p), float(t).hex(), hexes(lam)


def random_model(rng, cond, n=None):
    """A model of 1-12 distances over n (else 0-6) coordinates whose B
    has condition number ``cond``, its last row and distance a copy of
    its first in about a third of draws, and a random guess of any size."""
    n = int(rng.integers(0, 7)) if n is None else n
    m = int(rng.integers(1, 13))
    jac = rng.normal(0.0, 10.0 ** rng.uniform(-2.0, 2.0), (m, n))
    d = rng.uniform(0.0, 10.0, m)
    if m > 1 and rng.random() < 0.35:
        jac[-1], d[-1] = jac[0], d[0]
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eig = np.exp(rng.uniform(0.0, math.log(cond), n))
    eig[:1], eig[-1:] = 1.0, cond
    guess = tuple(sorted(rng.choice(m, int(rng.integers(0, m + 1)),
                                    replace=False).tolist()))
    return d, jac, (q * eig) @ q.T, guess


def test_minimax_step_is_the_reference_on_fused_models():
    """The model solved from one bordered matrix returns the reference's
    (p, t, lam), which assembles each working set's KKT matrix afresh,
    bit for bit on every model that fusing the recorded SAR cases, 96
    noisy SAR snapshots and 96 chain snapshots poses; among them are
    the chain's first models, whose guess of every group is too large
    to solve."""
    sh = camera_chain_sheaf()
    rng = np.random.default_rng(1)
    assignments = [sar_case_assignment(SAR, case) for case in (1, 2, 3)]
    assignments += noisy_sar_snapshots(SAR, 96, 1)
    assignments += [chain_snapshot(sh, rng) for _ in range(96)]
    models = sqp_models(assignments)
    assert len(models) > 1000
    assert sum(len(g) > jac.shape[1] + 1 for _, jac, _, g in models) >= 96
    for i, model in enumerate(models):
        assert model_bits(fusion._minimax_step(*model)) == \
            model_bits(reference_minimax_step(*model)), i


def test_minimax_step_is_the_reference_on_random_models():
    """The same bit for bit on seeded random models, cond(B) from 1 to
    1e13, with repeated rows and guesses of every size."""
    rng = np.random.default_rng(37)
    for i, cond in enumerate(np.logspace(0.0, 13.0, 1500)):
        model = random_model(rng, cond)
        assert model_bits(fusion._minimax_step(*model)) == \
            model_bits(reference_minimax_step(*model)), i


def assert_kkt(d, jac, b, found, tol=1e-9):
    """(p, t, lam) satisfies the model's optimality conditions: lam >= 0
    sums to 1, d + J p <= t and lam_i (t - d_i - J_i p) = 0 up to tol
    times each constraint's size |J_i| |p| + |t| + |d_i|, and
    B p + J^T lam = 0 up to tol times |B| |p| + |J|^T lam."""
    assert found is not None
    p, t, lam = found
    gap = d + jac @ p - t
    size = np.abs(jac) @ np.abs(p) + abs(t) + np.abs(d)
    assert np.all(lam >= 0.0) and abs(lam.sum() - 1.0) <= 1e-12
    assert np.all(gap <= tol * size)
    assert np.all(lam * np.abs(gap) <= tol * size)
    assert np.all(np.abs(b @ p + jac.T @ lam)
                  <= tol * (np.abs(b) @ np.abs(p) + np.abs(jac).T @ lam)
                  + 1e-300)


def test_minimax_step_meets_the_kkt_conditions():
    """On random well-conditioned models, repeated rows among them, and
    on models without coordinates (then t = max d), with and without a
    guess."""
    rng = np.random.default_rng(41)
    repeated = 0
    for i in range(400):
        d, jac, b, guess = random_model(rng, 10.0 ** rng.uniform(0.0, 3.0),
                                        n=0 if i % 5 == 0 else None)
        repeated += len(d) > 1 and d[0] == d[-1]
        for g in ((), guess):
            found = fusion._minimax_step(d, jac, b, g)
            assert_kkt(d, jac, b, found)
            if jac.shape[1] == 0:
                assert found[1] == d.max()
    assert repeated > 50


def test_sqp_skips_a_guess_too_large_to_solve(monkeypatch):
    """The linear route's first model guesses every group active: 9
    groups on the camera chain, against 6 coordinates and t.  More than
    n + 1 equalities make its KKT matrix singular, so that guess costs no
    solve, and the first model's solves are its cold start's."""
    sh = camera_chain_sheaf()
    a = chain_snapshot(sh, np.random.default_rng(1))
    models, solves = [], []
    step, solve = fusion._minimax_step, np.linalg.solve

    def spy_step(d, jac, b, guess=()):
        models.append((len(guess), jac.shape[1]))
        return step(d, jac, b, guess)

    def spy_solve(kkt, rhs):
        solves.append((len(models), len(kkt)))
        return solve(kkt, rhs)

    monkeypatch.setattr(fusion, "_minimax_step", spy_step)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    res = fuse(a)
    assert res.route == "sqp" and res.converged
    guessed, n = models[0]
    assert guessed > n + 1
    first = [size for call, size in solves if call == 1]
    assert first and n + 1 + guessed not in first
    assert max(first) <= 2 * (n + 1)


def compiled_plan(a):
    """The distance vector ``fuse`` compiles for ``a``."""
    return fusion._Plan(a.sheaf, a, *fusion._search_coordinates(a.sheaf))


def hexes(values):
    return [float(v).hex() for v in values]


def test_compiled_distance_vector_is_the_layered_one_on_sar():
    """At random whole-space points near and far from the readings of
    the recorded cases and of noisy snapshots, fuse's compiled distance
    vector equals make_point, restrict_coords and the reference metrics
    bit for bit."""
    rng = np.random.default_rng(25)
    scale = np.array([1.0, 1.0, 2000.0, 100.0, 100.0, 0.2])
    assignments = [sar_case_assignment(SAR, c) for c in (1, 2, 3)]
    assignments += noisy_sar_snapshots(SAR, 6, 25)
    for a in assignments:
        plan = compiled_plan(a)
        reading = np.asarray(a.values[SAR_TOP].coords)
        points = [reading + rng.normal(0.0, scale) for _ in range(20)]
        points += [np.array([rng.uniform(0.0, 359.0), rng.uniform(-85, 85),
                             rng.uniform(0.0, 2e4), *rng.normal(0.0, 500, 2),
                             rng.uniform(-5.0, 5.0)]) for _ in range(20)]
        for x in points:
            assert hexes(plan.distances(x)) == \
                hexes(layered_distances(a, x)), x


def test_compiled_distance_vector_maps_kernel_coordinates():
    """On a linear chain the plan scores kernel coordinates y at the
    whole-space point origin + basis y, as the layered path does there."""
    sh = camera_chain_sheaf()
    rng = np.random.default_rng(3)
    a = chain_snapshot(sh, rng)
    plan = compiled_plan(a)
    for _ in range(20):
        y = rng.normal(0.0, 20.0, plan.basis.shape[1])
        assert hexes(plan.distances(y)) == \
            hexes(layered_distances(a, plan.origin + plan.basis @ y))


def test_compiled_distance_vector_wraps_whole_space_circles():
    """A whole-space angle past 360 is wrapped before it is restricted:
    a map that reads the angle as a number sees 10, not 370."""
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",), ("b",)])
    mid, side = t.open_for(["a"]), t.open_for(["b"])
    sh = Sheaf(t, {t.full: product([circle(), euclidean(1)]),
                   mid: euclidean(1), side: euclidean(1)},
               [RestrictionMap(t.full, mid,
                               Builtin("angle", lambda c: (c[0],))),
                RestrictionMap(t.full, side, Projection([1]))])
    a = Assignment(sh, {mid: make_point(euclidean(1), [4.0]),
                        side: make_point(euclidean(1), [2.0])})
    plan = compiled_plan(a)
    d = plan.distances([370.0, -1.0])
    assert d == [6.0, 3.0]
    assert hexes(d) == hexes(plan.distances([10.0, -1.0])) == \
        hexes(layered_distances(a, [370.0, -1.0]))


def test_compiled_distance_vector_keeps_the_layered_errors():
    """A builtin that gives the wrong number of coordinates everywhere
    is refused when its sheaf is built; one that gives them only at 0,
    away from the point that probes it then, and a NaN distance raise
    the layered path's SpaceMismatch, naming the same stalk or open,
    from the plan and from fuse."""
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid = t.open_for(["a"])
    stalks = {t.full: euclidean(1), mid: euclidean(1)}
    with pytest.raises(SpaceMismatch, match="builtin 'pair' gives 2 "
                       "coordinates, the target stalk has 1"):
        Sheaf(t, stalks, [RestrictionMap(
            t.full, mid, Builtin("pair", lambda c: (c[0], c[0])))])
    sh = Sheaf(t, stalks, [RestrictionMap(t.full, mid, Builtin(
        "pair_at_0", lambda c: (c[0], c[0]) if c[0] == 0.0 else (c[0],)))])
    a = Assignment(sh, {mid: make_point(euclidean(1), [1.0])})
    wrong = r"expected 1 coordinates for R\^1, got 2"
    for run in (lambda: compiled_plan(a).distances([0.0]),
                lambda: layered_distances(a, [0.0]), lambda: fuse(a)):
        with pytest.raises(SpaceMismatch, match=wrong):
            run()

    sh = nan_sheaf([])
    a = Assignment(sh, {o: make_point(sh.stalk(o.id), [1.0])
                        for o in sh.topology.opens if o.mask})
    named = r"on \{a\} to the restriction from \{a,b\} is NaN"
    for run in (lambda: compiled_plan(a).distances([1.0]),
                lambda: layered_distances(a, [1.0])):
        with pytest.raises(SpaceMismatch, match=named):
            run()


@pytest.mark.parametrize("case,iterations,evaluations",
                         [(1, 10, 74), (2, 7, 50), (3, 9, 65)])
def test_sqp_work_on_the_recorded_sar_cases_is_pinned(case, iterations,
                                                      evaluations):
    """The search's path on the recorded cases: any drift in the
    arithmetic of the distances moves these counts."""
    res = fuse(sar_case_assignment(SAR, case))
    assert (res.route, res.converged) == ("sqp", True)
    assert (res.iterations, res.evaluations) == (iterations, evaluations)


def test_two_camera_simplex_family_ends_in_a_known_outcome():
    """The first 300 draws of ``two_camera_simplex_assignments``: each is
    already global, fuses on the barrier route with its certificate
    closed within f_tolerance, raises DegenerateAssignment when nothing
    is read, or raises SpaceMismatch, as a valid sheaf does today when
    its start lies off the simplexes.  Nothing else is raised."""
    tol = FusionOptions().f_tolerance
    outcomes = collections.Counter()
    for i, a in enumerate(two_camera_simplex_assignments(300)):
        try:
            res = fuse(a)
        except DegenerateAssignment:
            assert not a.values, i
            outcomes["degenerate"] += 1
            continue
        except SpaceMismatch:
            outcomes["space_mismatch"] += 1
            continue
        if res.route == "barrier":
            assert res.residual - res.dual_bound <= tol, i
        else:
            assert res.route == "already_global", i
        outcomes[res.route] += 1
    assert sum(outcomes.values()) == 300
    assert outcomes["barrier"] and outcomes["already_global"] and \
        outcomes["space_mismatch"]
