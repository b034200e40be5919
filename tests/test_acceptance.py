"""Acceptance suite: every criterion at its stated tolerance.

Each check prints one PASS/FAIL line (visible with pytest -s / -rA) and
asserts the stated bound.  Reference values that the observation tables
cannot jointly satisfy are asserted as stated anyway; see the project
notes for the blocking analysis of the expected failures.
"""

import math
import random
import time

import numpy as np
import pytest

from conftest import constant_circle_sheaf, random_linear_sheaf
from oracles import (
    distance,
    fixpoint_closure,
    full_cover,
    global_sections_via_h0,
    great_circle_km,
    lift_mass_matrix,
    lipschitz_bound,
    restrict_sheaf,
    sample_stalk,
)
from sheaffuse import (
    Assignment,
    Cover,
    betti,
    build_complex,
    consistency_radius,
    fuse,
    generate_topology,
    leray_check,
    pullback_global,
    sample_point,
    stochastic_lift,
    verify_functoriality,
)
from sheaffuse.cohomology import topology_betti
from sheaffuse.fusion import FusionOptions
from sheaffuse.scenarios import (
    SAR_CASES,
    SAR_REFERENCE,
    SarParameters,
    build_obstacle_sheaves,
    build_sar_sheaf,
    dead_reckon_estimate,
    crash_error_km,
    sar_case_assignment,
)

PARAMS = SarParameters()


def report(label, ok, detail=""):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


@pytest.fixture(scope="module")
def sar():
    sheaf = build_sar_sheaf(PARAMS)
    assignments = {c: sar_case_assignment(sheaf, c) for c in (1, 2, 3)}
    return sheaf, assignments


@pytest.fixture(scope="module")
def fusion_results(sar):
    sheaf, assignments = sar
    t0 = time.perf_counter()
    results = {c: fuse(assignments[c], FusionOptions())
               for c in (1, 2, 3)}
    elapsed = time.perf_counter() - t0
    return results, elapsed


# -- criterion 1: dead-reckoning reproduction --------------------------------

def test_c1_crash_estimates_within_two_hundredths_degree(sar):
    t0 = time.perf_counter()
    worst = 0.0
    for case in (1, 2, 3):
        est = dead_reckon_estimate(PARAMS, case)
        ref = SAR_REFERENCE[case]["crash_est"]
        worst = max(worst, abs(est[0] - ref[0]), abs(est[1] - ref[1]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.02 and elapsed < 1.0
    assert report("1a crash estimates", ok,
                  f"worst coordinate deviation {worst:.4f} deg, "
                  f"{elapsed:.3f}s")


@pytest.mark.parametrize("case,expected", [(1, 16.1), (2, 17.3), (3, 193.0)])
def test_c1_dead_reckon_error_row(case, expected):
    err = crash_error_km(PARAMS, dead_reckon_estimate(PARAMS, case))
    ok = abs(err - expected) <= 1.0
    assert report(f"1b error row case {case}", ok,
                  f"computed {err:.1f} km, stated {expected} km (tol 1.0)")


# -- criterion 2: consistency radius -----------------------------------------

@pytest.mark.parametrize("case,expected", [(1, 15.7), (2, 11.6), (3, 152.0)])
def test_c2_radius_bands(sar, case, expected):
    sheaf, assignments = sar
    t0 = time.perf_counter()
    radius = consistency_radius(assignments[case]).radius
    elapsed = time.perf_counter() - t0
    ok = 0.8 * expected <= radius <= 1.2 * expected and elapsed < 1.0
    assert report(f"2a radius band case {case}", ok,
                  f"computed {radius:.2f} km, band "
                  f"[{0.8 * expected:.2f}, {1.2 * expected:.2f}], "
                  f"{elapsed:.3f}s")


def test_c2_radius_ordering(sar):
    sheaf, assignments = sar
    r = {c: consistency_radius(assignments[c]).radius for c in (1, 2, 3)}
    ok = r[3] > 3.0 * r[1] and r[1] > r[2]
    assert report("2b radius ordering", ok,
                  f"case3 {r[3]:.1f} >> case1 {r[1]:.1f} > case2 {r[2]:.1f}")


def test_c2_dominant_edges_match_narrative(sar):
    sheaf, assignments = sar
    t = sheaf.topology
    r1 = consistency_radius(assignments[1])
    top_two = {(e.smaller.key(), e.larger.key()) for e in r1.edges[:2]}
    want = {("x+y+z", "vx+vy+x+y+z"), ("s+theta1+theta2", t.full.key())}
    ok1 = top_two == want
    r2 = consistency_radius(assignments[2])
    loudest = (r2.edges[0].smaller.key(), r2.edges[0].larger.key())
    ok2 = loudest == ("t+theta2", t.full.key())
    assert report("2c dominant edges", ok1 and ok2,
                  f"case1 top two {sorted(top_two)}, case2 top {loudest}")


def test_c2_position_edges_match_independent_oracle(sar):
    """Every kilometer-valued position edge agrees with a from-scratch
    great-circle recomputation within five percent."""
    sheaf, assignments = sar
    t = sheaf.topology
    w = PARAMS.weights
    km_per_deg = math.radians(1.0) * PARAMS.earth_radius_km
    worst_rel = 0.0
    for case in (1, 2, 3):
        obs = SAR_CASES[case]
        edges = {(e.smaller.key(), e.larger.key()): e.error
                 for e in consistency_radius(assignments[case]).edges}

        def oracle3(a, b):
            ground = great_circle_km(a["x"], a["y"], b["x"], b["y"],
                                     PARAMS.earth_radius_km)
            return math.hypot(ground, (a["z"] - b["z"]) / 1000.0) * w.geo_km

        fp, atc, field = obs["flight_plan"], obs["atc"], obs["field"]
        expected = {
            ("x+y+z", "vx+vy+x+y+z"): oracle3(fp, atc),
            ("x+y+z", t.full.key()): oracle3(fp, field),
        }
        # office against satellite detection through dead reckoning
        ref_cos = math.cos(math.radians(PARAMS.lon_ref_lat_deg))
        est_lon = field["x"] + field["vx"] * field["t"] / (km_per_deg *
                                                           ref_cos)
        est_lat = field["y"] + field["vy"] * field["t"] / km_per_deg
        expected[("s+theta1+theta2", t.full.key())] = w.geo_km * \
            great_circle_km(est_lon, est_lat, obs["sat"]["sx"],
                            obs["sat"]["sy"], PARAMS.earth_radius_km)
        for key, want in expected.items():
            got = edges[key]
            worst_rel = max(worst_rel, abs(got - want) / want)
    ok = worst_rel <= 0.05
    assert report("2d position edges vs oracle", ok,
                  f"worst relative deviation {worst_rel:.2e} (tol 5%)")


# -- criterion 3: fusion improvement ------------------------------------------

@pytest.mark.parametrize("case,cap", [(1, 4.0), (2, 12.0), (3, 110.0)])
def test_c3_fused_error_caps(fusion_results, sar, case, cap):
    sheaf, _ = sar
    results, _ = fusion_results
    est = results[case].fused.get(
        sheaf.topology.open_for(["theta1", "theta2", "s"])
    )
    err = crash_error_km(PARAMS, est.coords)
    ok = err <= cap
    assert report(f"3a fused error case {case}", ok,
                  f"computed {err:.2f} km (cap {cap})")


@pytest.mark.parametrize("case,factor", [(1, 4.0), (2, 1.4), (3, 1.7)])
def test_c3_improvement_factors(fusion_results, sar, case, factor):
    sheaf, _ = sar
    results, _ = fusion_results
    est = results[case].fused.get(
        sheaf.topology.open_for(["theta1", "theta2", "s"])
    )
    fused_err = crash_error_km(PARAMS, est.coords)
    dr_err = crash_error_km(PARAMS, dead_reckon_estimate(PARAMS, case))
    got = dr_err / fused_err
    ok = fused_err < dr_err and got >= factor
    assert report(f"3b improvement case {case}", ok,
                  f"{got:.2f}x (min {factor}x)")


def test_c3_deterministic_and_within_budget(fusion_results, sar):
    sheaf, assignments = sar
    results, elapsed = fusion_results
    again = fuse(assignments[1], FusionOptions())
    ok_det = again.section_at_top.coords == \
        results[1].section_at_top.coords
    ok_time = elapsed < 30.0
    assert report("3c determinism and runtime", ok_det and ok_time,
                  f"identical sections {ok_det}, {elapsed:.1f}s for all "
                  f"cases (budget 30s)")


# -- criterion 4: cohomology integers ------------------------------------------

def test_c4_cohomology_integers():
    t0 = time.perf_counter()
    mosaic, prob = build_obstacle_sheaves()
    t = prob.topology
    cover = Cover((t.open_for(["L", "V1", "V2"]),
                   t.open_for(["R", "V1", "V2"])))
    got_p = betti(prob, cover, 1).betti
    ok = got_p == [3, 1]
    overlap = t.open_for(["V1", "V2"]).mask
    for sh in (mosaic, prob):
        sub = restrict_sheaf(sh, overlap)
        sub_table = topology_betti(sub, 2, sub.topology.full)
        ok = ok and all(b == 0 for b in sub_table.betti[1:])
    circle, arcs = constant_circle_sheaf()
    got_circle = betti(circle, Cover(arcs), 1).betti
    ok = ok and got_circle == [1, 1]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert report("4 cohomology integers", ok,
                  f"probability sheaf {got_p}, circle {got_circle}, "
                  f"refined covers vanish, {elapsed:.3f}s")


# -- criterion 5: property suites ----------------------------------------------

def test_c5a_pseudometric_axioms():
    from test_spaces import ALL_KINDS

    rng = random.Random(1)
    count = 0
    for space in ALL_KINDS:
        for _ in range(100):
            x, y, z = (sample_point(space, rng) for _ in range(3))
            assert distance(space, x, x) <= 1e-9
            d = distance(space, x, y)
            assert abs(d - distance(space, y, x)) <= 1e-9
            assert distance(space, x, z) <= d + distance(space, y, z) + 1e-9
            count += 1
    assert report("5a pseudometric axioms", True,
                  f"{count} random triples across {len(ALL_KINDS)} kinds")


def test_c5b_functoriality_on_diamond_sheaves():
    rng = random.Random(2)
    diamonds = 0
    for _ in range(100):
        sh = random_linear_sheaf(rng, ensure_diamond=True)
        rep = verify_functoriality(sh, samples=4)
        assert rep.ok, str(rep)
        diamonds += rep.checked_pairs
    assert diamonds >= 100
    assert report("5b functoriality", True,
                  f"100 random sheaves, {diamonds} diamond pairs")


def test_c5c_pullback_radius_zero():
    rng = random.Random(3)
    sar_sheaf = build_sar_sheaf(PARAMS)
    for i in range(100):
        if i % 2 == 0:
            sh = random_linear_sheaf(rng)
        else:
            sh = sar_sheaf
        top = sh.topology.full
        point = (sample_stalk(sh, top.id, rng)
                 if sh.pullback(top.id) is not None else
                 sample_point(sh.stalk(top.id), rng))
        radius = consistency_radius(pullback_global(sh, point)).radius
        assert radius <= 1e-9
    assert report("5c pullback sections", True, "100 random sections")


def test_c5d_dd_zero():
    rng = random.Random(4)
    for _ in range(100):
        sh = random_linear_sheaf(rng)
        opens = [o for o in sh.topology.opens if o.mask]
        k = rng.randint(1, min(3, len(opens)))
        sets = rng.sample(opens, k)
        if not any(s.mask == sh.topology.full.mask for s in sets):
            sets.append(sh.topology.full)
        cx = build_complex(sh, Cover(tuple(sets)), 2)
        for j in range(len(cx.coboundaries) - 1):
            dd = cx.coboundaries[j + 1] @ cx.coboundaries[j]
            if dd.size:
                assert float(np.max(np.abs(dd))) <= 1e-10
    assert report("5d d.d = 0", True, "100 random sheaf/cover pairs")


def test_c5e_betti0_equals_brute_force():
    from oracles import agreement_dim

    rng = random.Random(5)
    accepted = 0
    while accepted < 100:
        sh = random_linear_sheaf(rng, n_entities=rng.randint(1, 3))
        t = sh.topology
        if len([o for o in t.opens if o.mask]) > 6:
            continue
        expected = agreement_dim(
            [o.mask for o in t.opens if o.mask],
            lambda m: sh.dim(t.find(m).id),
            lambda big, small: sh.restriction_matrix(t.find(big).id,
                                                     t.find(small).id),
        )
        got = betti(sh, full_cover(t), 0).betti[0]
        assert got == expected == global_sections_via_h0(sh).shape[1]
        accepted += 1
    assert report("5e betti0 vs brute force", True, "100 small sheaves")


def test_c5f_lipschitz_lower_bound():
    rng = random.Random(6)
    opts = FusionOptions(max_iterations=300)
    for _ in range(100):
        sh = random_linear_sheaf(rng, n_entities=2)
        a = Assignment(sh)
        for o in sh.topology.opens:
            if o.mask:
                a.values[o.id] = sample_point(sh.stalk(o.id), rng)
        k = lipschitz_bound(sh)
        res = fuse(a, opts)
        radius = consistency_radius(a).radius
        assert res.residual >= radius / (1.0 + k) - 1e-9
    assert report("5f lipschitz lower bound", True, "100 fusions")


def test_c5g_stochastic_lift_columns():
    rng = random.Random(7)
    for _ in range(100):
        n_dom, n_cod = rng.randint(1, 9), rng.randint(1, 9)
        table = [rng.randrange(n_cod) for _ in range(n_dom)]
        m = stochastic_lift(lambda i, t=table: t[i], n_dom, n_cod)
        assert np.allclose(m.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(m, lift_mass_matrix(lambda i, t=table: t[i],
                                               n_dom, n_cod))
        delta = np.zeros(n_dom)
        delta[0] = 1.0
        pushed = m @ delta
        assert pushed[table[0]] == 1.0 and pushed.sum() == 1.0
    assert report("5g stochastic lift", True, "100 random bin maps")


def test_c5h_topology_generation_oracle():
    from conftest import random_subbase

    rng = random.Random(8)
    for _ in range(100):
        universe, subbase = random_subbase(rng, rng.randint(1, 5),
                                           rng.randint(0, 4))
        t = generate_topology(universe, subbase)
        full = (1 << len(universe)) - 1
        assert {o.mask for o in t.opens} == fixpoint_closure(
            {universe.mask_of(s) for s in subbase}, full
        )
    assert report("5h topology generation", True, "100 random subbases")


# -- criterion 6: Leray verification -------------------------------------------

def test_c6_leray_mosaic():
    t0 = time.perf_counter()
    mosaic, _ = build_obstacle_sheaves()
    t = mosaic.topology
    cover = Cover((t.open_for(["L", "V1", "V2"]),
                   t.open_for(["R", "V1", "V2"])))
    rep = leray_check(mosaic, cover, 2)
    elapsed = time.perf_counter() - t0
    ok = rep.verdict and rep.tables_equal and \
        rep.cover_betti.betti == rep.topology_betti.betti and elapsed < 1.0
    assert report("6 leray verification", ok,
                  f"verdict {rep.verdict}, cover {rep.cover_betti.betti} == "
                  f"topology {rep.topology_betti.betti}, {elapsed:.3f}s")


# -- criterion 7: CLI contract ---------------------------------------------------

@pytest.mark.parametrize("case", [1, 2, 3])
def test_c7_scenario_exit_codes(case, capsys):
    from sheaffuse.cli import main

    code = main(["scenario", "sar", "--case", str(case)])
    capsys.readouterr()
    assert report(f"7a scenario sar case {case}", code == 0,
                  f"exit code {code}")


def test_c7_counterexample_check_exits_one(tmp_path, capsys):
    from test_cli import counterexample_spec

    from sheaffuse.cli import main

    path = counterexample_spec(tmp_path)
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    ok = code == 1 and "existence fails" in out
    assert report("7b gluing counterexample", ok,
                  f"exit code {code}, witness printed {('existence fails' in out)}")
