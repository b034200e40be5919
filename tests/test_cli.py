import json
import random
import re

import pytest

from sheaffuse import (
    Assignment,
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
    generate_topology,
    make_point,
)
from sheaffuse.cli import main
from sheaffuse.cohomology import Cover
from sheaffuse.scenarios import build_sar_sheaf, sar_case_assignment
from sheaffuse.specio import (
    SpecError,
    load_assignment,
    load_sheaf,
    save_assignment,
    save_sheaf,
    space_from_json,
)


@pytest.fixture(scope="module")
def sar_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sar")
    code = main(["scenario", "sar", "--case", "1",
                 "--export", str(tmp)])
    spec = tmp / "sar_spec.json"
    case1 = tmp / "sar_case1.csv"
    assert spec.exists() and case1.exists()
    return spec, case1


def counterexample_spec(tmp_path):
    u = EntityUniverse(["e1", "e2", "e3"])
    t = generate_topology(u, [("e1", "e2"), ("e2", "e3"),
                              ("e1", "e2", "e3")])
    u1, u2 = t.open_for(["e1", "e2"]), t.open_for(["e2", "e3"])
    mid, top = t.open_for(["e2"]), t.full
    sh = Sheaf(
        t,
        {top: euclidean(1), u1: euclidean(2), u2: euclidean(1),
         mid: euclidean(1)},
        [RestrictionMap(top, u1, Linear([[1.0], [0.0]])),
         RestrictionMap(top, u2, Identity()),
         RestrictionMap(u1, mid, Linear([[1.0, 1.0]])),
         RestrictionMap(u2, mid, Identity())],
    )
    path = tmp_path / "merge_spec.json"
    save_sheaf(path, sh)
    return path


def test_check_passes_on_scenario_spec(sar_files, capsys):
    spec, _ = sar_files
    assert main(["check", str(spec), "--samples", "16"]) == 0
    out = capsys.readouterr().out
    assert "functoriality: ok" in out


def test_check_fails_on_gluing_counterexample(tmp_path, capsys):
    path = counterexample_spec(tmp_path)
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "existence fails" in out


def test_check_fails_on_shortcut_edge(tmp_path, capsys):
    """A direct edge X -> {e0} that disagrees with the path through
    {e0,e1}: the check tests the spec's own edges, shortcuts included."""
    from test_sheaf import shortcut_sheaf

    path = tmp_path / "shortcut.json"
    save_sheaf(path, shortcut_sheaf())
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "functoriality: FAILED" in out
    assert "{e0,e1,e2} -> {e0,e1} -> {e0} and {e0,e1,e2} -> {e0} " \
        "disagree by 1" in out
    assert "gluing: ok" in out


def test_check_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2


def test_radius_command_reports_and_writes_csv(sar_files, tmp_path, capsys):
    spec, case1 = sar_files
    out_csv = tmp_path / "edges.csv"
    assert main(["radius", str(spec), str(case1),
                 "--csv", str(out_csv)]) == 0
    out = capsys.readouterr().out
    assert "consistency radius:" in out
    assert "metric weights:" in out
    header, first = out_csv.read_text().splitlines()[:2]
    assert header == "smaller,larger,error_km"
    assert first.split(",")[0] == "s+theta1+theta2"


def test_radius_of_an_overflowing_reading_exits_1(sar_files, tmp_path,
                                                  capsys):
    """A finite reading whose distance overflows is an error naming the
    pair, as it is for ``fuse``, not a radius of inf."""
    spec, case1 = sar_files
    path = tmp_path / "overflow.csv"
    path.write_text(case1.read_text().replace(
        "t+theta1,77.099999999999994,0.94299999999999995",
        "t+theta1,77.099999999999994,1e308"))
    capsys.readouterr()
    assert main(["radius", str(spec), str(path)]) == 1
    captured = capsys.readouterr()
    assert "consistency radius" not in captured.out
    assert captured.err == (
        "error: distance on {t,theta1} to the restriction from "
        "{x,y,z,vx,vy,t,theta1,theta2,s} is infinite\n")


def test_radius_unknown_open_exits_2(sar_files, tmp_path, capsys):
    spec, _ = sar_files
    bad = tmp_path / "bad.csv"
    bad.write_text("open_set,v0\nnope+such,1.0\n")
    assert main(["radius", str(spec), str(bad)]) == 2
    err = capsys.readouterr().err
    assert "nope" in err


def test_radius_mis_sized_projection_exits_2(tmp_path, capsys):
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid, top = t.open_for(["a"]), t.full
    sh = Sheaf(
        t, {top: euclidean(2), mid: euclidean(2)},
        [RestrictionMap(top, mid, Projection([0, 1, 1]))],
    )
    spec, values = tmp_path / "spec.json", tmp_path / "values.csv"
    save_sheaf(spec, sh)
    save_assignment(values, Assignment(sh, {
        top: make_point(sh.stalk(top.id), [1.0, 2.0]),
        mid: make_point(sh.stalk(mid.id), [1.0, 2.0]),
    }))
    assert main(["radius", str(spec), str(values)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "projection keeps 3 coordinates" in err


def test_radius_of_global_section_is_zero(sar_files, tmp_path, capsys):
    spec, _ = sar_files
    sh, _meta = load_sheaf(spec)
    from sheaffuse import make_point, pullback_global

    s = make_point(sh.stalk(sh.topology.full.id),
                   (70.0, 43.0, 11000.0, -495.0, 164.0, 0.9))
    path = tmp_path / "global.csv"
    save_assignment(path, pullback_global(sh, s))
    assert main(["radius", str(spec), str(path)]) == 0
    out = capsys.readouterr().out
    assert "consistency radius: 0" in out


def test_fuse_deterministic_reports(sar_files, capsys):
    spec, case1 = sar_files
    assert main(["fuse", str(spec), str(case1)]) == 0
    first = capsys.readouterr().out
    assert main(["fuse", str(spec), str(case1)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "fused section" in first
    assert re.search(r"route: sqp  converged: True  evaluations: \d+\n",
                     first)


def test_fuse_strict_exit_on_iteration_cap(sar_files, capsys):
    spec, case1 = sar_files
    code = main(["fuse", str(spec), str(case1), "--max-iter", "2",
                 "--strict"])
    assert code == 3


@pytest.mark.parametrize("option, value", [
    ("--max-iter", "0"), ("--tol", "-1"),
    ("--tol", "nan"), ("--tol", "inf"),
])
def test_fuse_bad_option_exits_2(sar_files, capsys, option, value):
    spec, case1 = sar_files
    assert main(["fuse", str(spec), str(case1), option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: fuse "
                                                   "options: ")


def test_fuse_refuses_a_discrete_stalk_with_one_error_line(tmp_path, capsys):
    """A sheaf with a discrete stalk is nonlinear, and fusion cannot
    search a discrete factor: exit 1 with one error line naming the open
    and the kind, and no traceback."""
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid = t.open_for(["a"])
    labels = discrete(["red", "green"])
    sh = Sheaf(t, {mid: labels, t.full: labels},
               [RestrictionMap(t.full, mid, Identity())])
    spec, values = tmp_path / "spec.json", tmp_path / "values.csv"
    save_sheaf(spec, sh)
    save_assignment(values, Assignment(sh, {
        mid: make_point(labels, [0.0]), t.full: make_point(labels, [1.0])}))
    assert main(["fuse", str(spec), str(values)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "on {a,b} has a discrete factor" in lines[0]
    assert "Traceback" not in captured.err + captured.out

def test_fuse_prints_certificate_on_linear_sheaf(tmp_path, capsys):
    """The sqp route on a linear sheaf reports its proven lower bound
    and the gap."""
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    mid, top = t.open_for(["a"]), t.full
    sh = Sheaf(
        t, {mid: euclidean(1), top: euclidean(1)},
        [RestrictionMap(top, mid, Identity())],
    )
    spec, values = tmp_path / "spec.json", tmp_path / "values.csv"
    save_sheaf(spec, sh)
    save_assignment(values, Assignment(sh, {
        mid: make_point(sh.stalk(mid.id), [0.0]),
        top: make_point(sh.stalk(top.id), [2.0]),
    }))
    assert main(["fuse", str(spec), str(values)]) == 0
    out = capsys.readouterr().out
    bound, gap = re.search(r"certificate: dual bound (\S+)  gap (\S+)\n",
                           out).groups()
    assert float(bound) == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= float(gap) <= 1e-12
    assert "route: sqp  converged: True" in out


def test_cohomology_json_on_probability_sheaf(tmp_path, capsys):
    from sheaffuse.scenarios import build_obstacle_sheaves

    _, prob = build_obstacle_sheaves()
    path = tmp_path / "prob.json"
    save_sheaf(path, prob)
    assert main(["cohomology", str(path), "--cover", "L+V1+V2", "R+V1+V2",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti"][:2] == [3, 1]


def test_cohomology_single_open_cover(tmp_path, capsys):
    u = EntityUniverse(["a"])
    t = generate_topology(u, [("a",)])
    sh = Sheaf(t, {t.full: euclidean(4)}, [])
    path = tmp_path / "one.json"
    save_sheaf(path, sh)
    assert main(["cohomology", str(path), "--cover", "a", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti"][0] == 4


def test_cohomology_nonlinear_hint(sar_files, capsys):
    spec, _ = sar_files
    assert main(["cohomology", str(spec)]) == 1
    err = capsys.readouterr().err
    assert "--lift-bins" in err


def test_cohomology_rejects_nonlinear_union_stalk(tmp_path, capsys):
    """A circle stalk on a union outside the basis makes the sheaf
    nonlinear, though every basis stalk and restriction is linear."""
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",)])
    a = t.open_for(["a"])
    sh = Sheaf(
        t, {a: euclidean(1), t.full: circle()},
        [RestrictionMap(t.full, a, Identity())],
    )
    assert not sh.is_linear()
    path = tmp_path / "circle.json"
    save_sheaf(path, sh)
    assert main(["cohomology", str(path)]) == 1
    assert "--lift-bins" in capsys.readouterr().err


def test_cohomology_lift_reports_dd_residual(sar_files, capsys):
    spec, _ = sar_files
    assert main(["cohomology", str(spec), "--lift-bins", "2",
                 "--max-degree", "1"]) == 0
    out = capsys.readouterr().out
    assert "max |d.d|" in out


def test_cohomology_lift_json_is_one_object(sar_files, capsys):
    spec, _ = sar_files
    assert main(["cohomology", str(spec), "--lift-bins", "2",
                 "--max-degree", "1", "--json"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["dd_residual"] == pytest.approx(0.481, abs=5e-4)
    assert payload["betti"] == [62, -2]
    assert "do not shrink it" in captured.err


def test_cohomology_lift_at_three_bins(sar_files, capsys):
    """Pins the 3-bin lifted complex, where a sample that changed bin
    would show."""
    spec, _ = sar_files
    assert main(["cohomology", str(spec), "--lift-bins", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"] == [1026, 333, 36]
    assert payload["ranks"] == [301, 36, 0]
    assert payload["betti"] == [725, -4, 0]
    assert payload["dd_residual"] == pytest.approx(0.7572016460905349,
                                                   rel=1e-12)


@pytest.mark.parametrize("bins", ["-1", "0"])
def test_cohomology_lift_bins_below_one_exits_2(sar_files, capsys, bins):
    spec, _ = sar_files
    assert main(["cohomology", str(spec), "--lift-bins", bins]) == 2
    assert "--lift-bins must be at least 1" in capsys.readouterr().err


def test_cohomology_lift_bins_over_the_cap_exit_2(sar_files, capsys):
    """6 bins a side give the 6-d office stalk 6**6 = 46,656 bins, more
    than the lift's cap: a choice of the caller, so an input error."""
    spec, _ = sar_files
    assert main(["cohomology", str(spec), "--lift-bins", "6"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("input error: --lift-bins 6: the lift of "
                   "{x,y,z,vx,vy,t,theta1,theta2,s} needs 46656 bins "
                   "(cap 20000)\n")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_check_samples_below_one_exits_2(sar_files, capsys, samples):
    """The SAR spec's nonlinear pairs would otherwise pass unsampled."""
    spec, _ = sar_files
    assert main(["check", str(spec), "--samples", samples]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: --samples must be at least 1, got " \
        f"{samples}\n"


@pytest.mark.parametrize("ranges, why", [
    ([["west", 95.0], [27.0, 61.0]], "not a pair of numbers"),
    ([[40.0, float("inf")], [27.0, 61.0]], "finite and increasing"),
    ([[95.0, 40.0], [27.0, 61.0]], "finite and increasing"),
    ([[40.0, 95.0]], "one pair per coordinate"),
    # the midpoint rounds onto an end, so two bin edges coincide
    ([[1e16, 1e16 + 2.0], [27.0, 61.0]], "strictly increasing"),
])
def test_cohomology_bad_lift_range_exits_2(sar_files, tmp_path, capsys,
                                           ranges, why):
    spec, _ = sar_files
    data = json.loads(spec.read_text())
    # the 2-d detection stalk over U5
    data["lift_ranges"]["s+theta1+theta2"] = ranges
    bad = tmp_path / "bad_ranges.json"
    bad.write_text(json.dumps(data))
    assert main(["cohomology", str(bad), "--lift-bins", "2"]) == 2
    assert why in capsys.readouterr().err


def test_cohomology_lift_degree_zero_has_no_composition(sar_files, capsys):
    spec, _ = sar_files
    assert main(["cohomology", str(spec), "--lift-bins", "2",
                 "--max-degree", "0", "--json"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["betti"] == [62]
    assert payload["dd_residual"] == 0.0
    assert "warning" not in captured.err


@pytest.fixture(scope="module")
def obstacle_spec(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("obstacle")
    assert main(["scenario", "obstacle", "--export", str(tmp)]) == 0
    return (tmp / "obstacle_probability.json").read_text()


# restrictions 0-1 project V1+V2 onto V1 and V2; restriction 2 is a
# 2x2 linear map from L+V1+V2 to V1+V2; stalk V1 is R^1; the whole
# space L+R+V1+V2 has no stalk of its own
SPEC_MUTATIONS = {
    "bad_index": lambda d: d["restrictions"][0].update(indices=[5]),
    "projection_count": lambda d: d["restrictions"][0].update(
        indices=[0, 1]),
    "identity_dims": lambda d: d["restrictions"][0].update(kind="identity"),
    "edge_from_union": lambda d: d["restrictions"].append(
        {"from": "L+R+V1+V2", "to": "V1", "kind": "identity"}),
    "linear_shape": lambda d: d["restrictions"][2].update(
        matrix=[[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]),
    "linear_nan": lambda d: d["restrictions"][2].update(
        matrix=[[float("nan"), 1.0], [0.0, 1.0]]),
    "affine_offset": lambda d: d["restrictions"][2].update(
        kind="affine", offset=[1.0]),
    "restr_not_list": lambda d: d.update(restrictions=d["restrictions"][0]),
    "restr_entry_not_object": lambda d: d["restrictions"].append("V1"),
    "from_not_string": lambda d: d["restrictions"][0].update({"from": 5}),
    "stalks_not_mapping": lambda d: d.update(
        stalks=list(d["stalks"].values())),
    "neg_weight": lambda d: d["stalks"]["V1"].update(weight=-2.0),
    "nan_weight": lambda d: d["stalks"]["V1"].update(weight=float("nan")),
    "neg_dim": lambda d: d["stalks"]["V1"].update(dim=-1),
    "fractional_dim": lambda d: d["stalks"]["V1"].update(dim=1.5),
}


@pytest.mark.parametrize("command", ["check", "cohomology"])
@pytest.mark.parametrize("mutation", SPEC_MUTATIONS)
def test_malformed_spec_exits_2(obstacle_spec, tmp_path, capsys, mutation,
                                command):
    data = json.loads(obstacle_spec)
    SPEC_MUTATIONS[mutation](data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main([command, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, degree", [
    ("cohomology", "-1"), ("cohomology", "-3"), ("leray", "-2"),
])
def test_negative_max_degree_exits_2(obstacle_spec, tmp_path, capsys,
                                     command, degree):
    """No table is computed, so the output would be empty or a vacuous
    pass."""
    path = tmp_path / "probability.json"
    path.write_text(obstacle_spec)
    assert main([command, str(path), "--max-degree", degree]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: --max-degree must be at least 0, got " \
        f"{degree}\n"


@pytest.mark.parametrize("descriptor", [
    {"kind": "euclidean", "dim": 2.7},
    {"kind": "euclidean", "dim": True},
    {"kind": "simplex", "bins": 2.7},
    {"kind": "simplex", "bins": True},
    {"kind": "simplex", "bins": "3"},
    {"kind": "discrete", "labels": "abc"},
])
def test_space_descriptor_rejected(descriptor):
    with pytest.raises(SpecError, match="bad space descriptor"):
        space_from_json(descriptor)


def test_space_descriptor_whole_float_accepted():
    assert space_from_json({"kind": "simplex", "bins": 3.0}).dim == 3
    assert space_from_json({"kind": "discrete",
                            "labels": ["a", "b"]}).labels == ("a", "b")


def test_leray_command(tmp_path, capsys):
    from sheaffuse.scenarios import build_obstacle_sheaves

    mosaic, _ = build_obstacle_sheaves()
    path = tmp_path / "mosaic.json"
    save_sheaf(path, mosaic)
    assert main(["leray", str(path), "--cover", "L+V1+V2", "R+V1+V2",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] is True
    assert payload["tables_equal"] is True


def test_scenario_obstacle_and_coins_pass(capsys):
    assert main(["scenario", "obstacle"]) == 0
    assert main(["scenario", "coins"]) == 0


def test_round_trip_radius_and_betti(sar_files, tmp_path):
    spec, case1 = sar_files
    sh, _ = load_sheaf(spec)
    a = load_assignment(case1, sh)
    direct_sheaf = build_sar_sheaf()
    direct = consistency_radius(sar_case_assignment(direct_sheaf, 1))
    loaded = consistency_radius(a)
    assert loaded.radius == pytest.approx(direct.radius, rel=1e-15)
    assert [(e.smaller.key(), e.larger.key()) for e in loaded.edges] == \
        [(e.smaller.key(), e.larger.key()) for e in direct.edges]

    from sheaffuse.scenarios import build_obstacle_sheaves

    _, prob = build_obstacle_sheaves()
    path = tmp_path / "prob.json"
    save_sheaf(path, prob)
    again, _ = load_sheaf(path)
    t0, t1 = prob.topology, again.topology
    cov0 = Cover((t0.open_for(["L", "V1", "V2"]),
                  t0.open_for(["R", "V1", "V2"])))
    cov1 = Cover((t1.open_for(["L", "V1", "V2"]),
                  t1.open_for(["R", "V1", "V2"])))
    assert betti(prob, cov0, 2).betti == betti(again, cov1, 2).betti


def test_assignment_csv_round_trip_exact(sar_files, tmp_path):
    spec, case1 = sar_files
    sh, _ = load_sheaf(spec)
    a = load_assignment(case1, sh)
    path = tmp_path / "again.csv"
    save_assignment(path, a)
    b = load_assignment(path, sh)
    for oid in a.values:
        assert a.values[oid].coords == b.values[oid].coords


def test_fuse_rejects_non_finite_observation(sar_files, tmp_path, capsys):
    spec, case1 = sar_files
    header, first, *rest = case1.read_text().splitlines()
    key, _, tail = first.split(",", 2)
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join([header, f"{key},nan,{tail}"] + rest) + "\n")
    assert main(["fuse", str(spec), str(bad)]) == 2
    assert "finite" in capsys.readouterr().err


def native_union_files(tmp_path):
    """Spec and values of a linear sheaf whose union W = {e0,e1} has a
    stalk of its own inside the whole space, a pullback of four basis
    opens; the spec has a lift range for every open with a stalk."""
    from conftest import random_linear_sheaf, with_native_union
    from sheaffuse import sample_point

    base = random_linear_sheaf(random.Random(7), n_entities=4,
                               include_full=False, conjugate=False)
    t = base.topology
    w = t.open_for(["e0", "e1"])
    sh = with_native_union(base, w.id)
    assert base.pullback(w.id) is not None
    assert sh.pullback(t.full.id) is not None
    # a smaller open gets a 3x wider box, which holds the image of every
    # box above it under these restrictions
    ranges = {}
    for oid, space in sh.stalks.items():
        o, r = t.opens[oid], 10.0 * 3 ** (4 - t.opens[oid].size)
        if o.mask:
            ranges[o.key()] = [[-r, r]] * space.dim
    spec, values = tmp_path / "spec.json", tmp_path / "values.csv"
    save_sheaf(spec, sh, lift_ranges=ranges)
    rng = random.Random(3)
    save_assignment(values, Assignment(sh, {
        o: sample_point(sh.stalk(o.id), rng)
        for o in list(t.basis) + [w, t.full]}))
    return spec, values


def test_native_union_spec_runs_end_to_end(tmp_path, capsys):
    """The whole space restricts to W through W itself, and W is lifted
    with its own range."""
    spec, values = native_union_files(tmp_path)
    assert main(["check", str(spec)]) == 0
    assert main(["radius", str(spec), str(values)]) == 0
    assert main(["fuse", str(spec), str(values)]) == 0
    assert main(["cohomology", str(spec), "--lift-bins", "1"]) == 0
    assert "e0+e1 < e0+e1+e2+e3" in capsys.readouterr().out

    data = json.loads(spec.read_text())
    del data["lift_ranges"]["e0+e1"]
    spec.write_text(json.dumps(data))
    assert main(["cohomology", str(spec), "--lift-bins", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "input error: no lift range for open 'e0+e1'\n"
