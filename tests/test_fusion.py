import random

import numpy as np
import pytest

from conftest import random_linear_sheaf
from sheaffuse import (
    Assignment,
    EntityUniverse,
    Identity,
    RestrictionMap,
    Sheaf,
    assignment_distance,
    complete_unions,
    consistency_radius,
    euclidean,
    fuse,
    fusion_lower_bound,
    generate_topology,
    lipschitz_bound,
    make_point,
    nelder_mead,
    pullback_global,
    sample_point,
)
from sheaffuse.errors import DegenerateAssignment
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


def test_circular_coordinates_wrapped():
    res = nelder_mead(
        lambda x: min(abs(x[0] - 10.0), 360.0 - abs(x[0] - 10.0)),
        [350.0], circular_mask=(True,),
    )
    assert 0.0 <= res.x[0] < 360.0
    assert res.f == pytest.approx(0.0, abs=1e-5)


def test_iteration_cap_flags_nonconvergence():
    res = nelder_mead(lambda x: (x[0] - 1e6) ** 2, [0.0],
                      opts=FusionOptions(max_iterations=3, restarts=1))
    assert not res.converged


def test_determinism_under_fixed_seed():
    rough = lambda x: max(abs(x[0] - 1.0), abs(x[1] + 2.0), 0.5 * abs(x[0]))
    a = nelder_mead(rough, [10.0, 10.0], opts=FusionOptions(seed=9))
    b = nelder_mead(rough, [10.0, 10.0], opts=FusionOptions(seed=9))
    assert a.x == b.x and a.f == b.f


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
    assert res.section_at_top.coords[0] == pytest.approx(1.0, abs=1e-5)
    assert res.residual == pytest.approx(1.0, abs=1e-5)


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
