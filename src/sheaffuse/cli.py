"""sheafctl: command-line front end.

Subcommands: check, radius, fuse, cohomology, leray, scenario.
Exit codes: 0 success, 1 analysis failure, 2 input error, 3 optimizer
non-convergence under --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import spaces as sp
from .cohomology import (
    DD_TOL,
    MAX_STALK_BINS,
    Cover,
    betti,
    leray_check,
    lift_sheaf,
    topology_betti,
    uniform_grid,
)
from .consistency import Assignment, consistency_radius
from .errors import NonlinearSheaf, SheafFuseError
from .fusion import FusionOptions, fuse
from .sheaf import verify_functoriality, verify_gluing
from .specio import (
    SpecError,
    fmt,
    load_assignment,
    load_sheaf,
    save_assignment,
    save_edge_report,
    save_sheaf,
)

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3


def _print_weights(spec: dict):
    weights = spec.get("weights")
    if weights:
        print("metric weights:")
        for key, value in weights.items():
            print(f"  {key}: {value}")


def _at_least(flag: str, value: int, least: int):
    if value < least:
        raise SpecError(f"{flag} must be at least {least}, got {value}")


def cmd_check(args) -> int:
    _at_least("--samples", args.samples, 1)
    sh, spec = load_sheaf(args.spec)
    func_report = verify_functoriality(sh, samples=args.samples)
    print(func_report)
    ok = func_report.ok
    if sh.is_linear():
        glue_report = verify_gluing(sh)
        print(glue_report)
        ok = ok and glue_report.ok
    else:
        print("gluing: skipped (the rank check needs linear restrictions)")
    return EXIT_OK if ok else EXIT_ANALYSIS


def cmd_radius(args) -> int:
    sh, spec = load_sheaf(args.spec)
    a = load_assignment(args.assignment, sh)
    result = consistency_radius(a)
    _print_weights(spec)
    print(f"consistency radius: {result.radius:.6g}")
    print("edge errors (descending):")
    for e in result.edges:
        print(f"  {e.smaller.key()} < {e.larger.key()}: {fmt(e.error)}")
    if args.csv:
        save_edge_report(args.csv, result)
        print(f"edge report written to {args.csv}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    try:
        opts = FusionOptions(max_iterations=args.max_iter,
                             f_tolerance=args.tol)
    except ValueError as exc:
        raise SpecError(f"fuse options: {exc}") from None
    sh, spec = load_sheaf(args.spec)
    a = load_assignment(args.assignment, sh)
    result = fuse(a, opts)
    _print_weights(spec)
    print("fused section over the whole space:")
    for i, value in enumerate(result.section_at_top.coords):
        print(f"  c{i}: {fmt(value)}")
    print(f"residual (sup distance to input): {fmt(result.residual)}")
    if result.dual_bound is not None:
        print(f"certificate: dual bound {fmt(result.dual_bound)}  gap "
              f"{fmt(result.residual - result.dual_bound)}")
    print(f"iterations: {result.iterations}  route: {result.route}  "
          f"converged: {result.converged}  "
          f"evaluations: {result.evaluations}")
    if args.csv:
        save_assignment(args.csv, result.fused)
        print(f"fused assignment written to {args.csv}")
    if args.strict and not result.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _resolve_cover(sh, spec, keys) -> Cover:
    t = sh.topology
    if keys:
        names = [[n for n in key.split("+") if n] for key in keys]
    else:
        names = spec.get("subbase", [])
    sets = []
    for group in names:
        try:
            sets.append(t.open_for(group))
        except KeyError as exc:
            raise SpecError(exc.args[0]) from None
    return Cover(tuple(sets))


def _lift_range(key: str, bounds) -> tuple[float, float]:
    """One axis of a spec's lift range: two finite, increasing numbers."""
    if not isinstance(bounds, list) or len(bounds) != 2 or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in bounds
    ):
        raise SpecError(f"lift range {bounds!r} for {key!r} is not a pair "
                        f"of numbers")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise SpecError(f"lift range {bounds!r} for {key!r} must be finite "
                        f"and increasing")
    return lo, hi


def _lift(sh, spec, bins: int):
    _at_least("--lift-bins", bins, 1)
    ranges = spec.get("lift_ranges")
    if not ranges or not isinstance(ranges, dict):
        raise SpecError(
            "the spec has no lift_ranges; they are required to bin the "
            "stalks for a stochastic lift"
        )
    grids = {}
    for oid in sh.native_ids():
        key = sh.topology.opens[oid].key()
        per_coord = ranges.get(key)
        if per_coord is None:
            raise SpecError(f"no lift range for open {key!r}")
        dim = sh.stalk(oid).dim
        if not isinstance(per_coord, list) or len(per_coord) != dim:
            raise SpecError(f"lift range for {key!r} needs one pair per "
                            f"coordinate of its {dim}-d stalk")
        bounds = [_lift_range(key, pair) for pair in per_coord]
        if bins ** dim > MAX_STALK_BINS:
            raise SpecError(f"--lift-bins {bins}: the lift of "
                            f"{sh.topology.opens[oid]} needs {bins ** dim} "
                            f"bins (cap {MAX_STALK_BINS})")
        try:
            grids[oid] = uniform_grid([lo for lo, _ in bounds],
                                      [hi for _, hi in bounds], bins)
        except ValueError as exc:
            raise SpecError(f"lift range for {key!r}: {exc}") from None
    return lift_sheaf(sh, grids)


def cmd_cohomology(args) -> int:
    _at_least("--max-degree", args.max_degree, 0)
    sh, spec = load_sheaf(args.spec)
    if args.lift_bins is not None:
        sh = _lift(sh, spec, args.lift_bins)
    try:
        cover = _resolve_cover(sh, spec, args.cover)
        table = betti(sh, cover, args.max_degree)
    except NonlinearSheaf:
        print("error: the sheaf has nonlinear restrictions; rerun with "
              "--lift-bins N to analyze its stochastic linearization",
              file=sys.stderr)
        return EXIT_ANALYSIS
    if args.lift_bins is not None:
        note = sys.stderr if args.json else sys.stdout
        print(f"lifted complex: column-stochastic blocks, "
              f"max |d.d| = {table.dd_residual:.3g}", file=note)
        if table.dd_residual > DD_TOL:
            print("warning: the discretized lift is only approximately "
                  "functorial; Betti numbers are unreliable below that "
                  "residual, and more --lift-bins do not shrink it",
                  file=note)
    if args.json:
        print(json.dumps(table.as_dict()))
    else:
        print(table)
        print(f"betti: {table.betti}")
    return EXIT_OK


def cmd_leray(args) -> int:
    _at_least("--max-degree", args.max_degree, 0)
    sh, spec = load_sheaf(args.spec)
    try:
        cover = _resolve_cover(sh, spec, args.cover)
        report = leray_check(sh, cover, args.max_degree)
    except NonlinearSheaf:
        print("error: leray check requires a linear sheaf", file=sys.stderr)
        return EXIT_ANALYSIS
    if args.json:
        payload = {
            "acyclic": report.acyclic,
            "verdict": report.verdict,
            "tables_equal": report.tables_equal,
        }
        if report.cover_betti:
            payload["cover_betti"] = report.cover_betti.betti
            payload["topology_betti"] = report.topology_betti.betti
        if report.does_not_commute:
            payload["does_not_commute"] = [
                [str(u) for u in chain] for chain in report.does_not_commute]
        print(json.dumps(payload))
    else:
        print(report)
    ok = report.verdict and (report.tables_equal is not False)
    return EXIT_OK if ok else EXIT_ANALYSIS


def _expect(checks: list, label: str, ok: bool, detail: str):
    checks.append(ok)
    print(f"  [{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def _run_sar_case(case: int, export_dir=None) -> bool:
    from . import scenarios as sc

    params = sc.SarParameters()
    sh = sc.build_sar_sheaf(params)
    a = sc.sar_case_assignment(sh, case)
    ref = sc.SAR_REFERENCE[case]
    t = sh.topology
    checks: list[bool] = []

    print(f"scenario sar, case {case}")
    print("metric weights:", params.weights.as_dict())

    fn = verify_functoriality(sh, samples=64)
    _expect(checks, "presheaf axioms", fn.ok,
            f"max path discrepancy {fn.max_discrepancy:.2e}")

    est = sc.dead_reckon_estimate(params, case)
    for axis, name in ((0, "lon"), (1, "lat")):
        diff = abs(est[axis] - ref["crash_est"][axis])
        _expect(checks, f"crash estimate {name}", diff <= 0.02,
                f"computed {est[axis]:.4f}, reference "
                f"{ref['crash_est'][axis]:.4f}, |diff| {diff:.4f} deg "
                f"(tol 0.02)")
    dr_err = sc.crash_error_km(params, est)
    diff = abs(dr_err - ref["dead_reckon_error_km"])
    _expect(checks, "dead-reckon error", diff <= 1.0,
            f"computed {dr_err:.1f} km, reference "
            f"{ref['dead_reckon_error_km']} km (tol 1.0)")

    result = consistency_radius(a)
    lo, hi = 0.8 * ref["radius_km"], 1.2 * ref["radius_km"]
    _expect(checks, "consistency radius", lo <= result.radius <= hi,
            f"computed {result.radius:.2f} km, reference band "
            f"[{lo:.2f}, {hi:.2f}]")
    dominant = [(e.smaller.key(), e.larger.key()) for e in result.edges[:2]]
    if case == 1:
        want = {("x+y+z", "vx+vy+x+y+z"), ("s+theta1+theta2", t.full.key())}
        ok = set(dominant) == want
        _expect(checks, "dominant edges", ok,
                f"top two {dominant}")
    elif case == 2:
        ok = dominant[0] == ("t+theta2", t.full.key())
        _expect(checks, "dominant edge", ok, f"top {dominant[0]}")

    fusion = fuse(a)
    est_open = t.open_for(["theta1", "theta2", "s"])
    fused_est = fusion.fused.get(est_open).coords
    fused_err = sc.crash_error_km(params, fused_est)
    caps = {1: 4.0, 2: 12.0, 3: 110.0}
    improvements = {1: 4.0, 2: 1.4, 3: 1.7}
    _expect(checks, "fused crash error", fused_err <= caps[case],
            f"computed {fused_err:.2f} km (cap {caps[case]})")
    factor = dr_err / fused_err if fused_err > 0 else float("inf")
    _expect(checks, "fusion improvement",
            fused_err < dr_err and factor >= improvements[case],
            f"{factor:.2f}x over dead reckoning "
            f"(min {improvements[case]}x)")
    fused_radius = consistency_radius(fusion.fused).radius
    _expect(checks, "fused assignment is global", fused_radius <= 1e-6,
            f"consistency radius {fused_radius:.2e}")

    if export_dir is not None:
        os.makedirs(export_dir, exist_ok=True)
        spec_path = os.path.join(export_dir, "sar_spec.json")
        save_sheaf(spec_path, sh,
                   subbase_keys=[t.open_for(v).key()
                                 for v in sc.SAR_SUBBASE.values()],
                   weights=params.weights.as_dict(),
                   lift_ranges=sc.sar_lift_ranges())
        case_path = os.path.join(export_dir, f"sar_case{case}.csv")
        save_assignment(case_path, a)
        print(f"  exported {spec_path} and {case_path}")
    return all(checks)


def _run_obstacle(export_dir=None) -> bool:
    from . import scenarios as sc

    mosaic, prob = sc.build_obstacle_sheaves()
    t = prob.topology
    cov = Cover((t.open_for(["L", "V1", "V2"]), t.open_for(["R", "V1", "V2"])))
    checks: list[bool] = []
    print("scenario obstacle")
    bp = betti(prob, cov, 2)
    _expect(checks, "probability sheaf cover betti", bp.betti[:2] == [3, 1],
            f"{bp.betti}")
    bm = betti(mosaic, cov, 2)
    _expect(checks, "mosaic sheaf cover betti",
            bm.betti[0] == 12 and all(b == 0 for b in bm.betti[1:]),
            f"{bm.betti}")
    for name, sh in (("mosaic", mosaic), ("probability", prob)):
        table = topology_betti(sh, 2, t.open_for(["V1", "V2"]))
        _expect(checks, f"{name} refined-cover vanishing",
                all(b == 0 for b in table.betti[1:]), f"{table.betti}")
    rep = leray_check(mosaic, cov, 2)
    _expect(checks, "mosaic leray verdict", rep.verdict,
            f"acyclic: {rep.acyclic}")
    _expect(checks, "mosaic cover table equals topology table",
            bool(rep.tables_equal),
            f"{rep.cover_betti.betti if rep.cover_betti else None} vs "
            f"{rep.topology_betti.betti if rep.topology_betti else None}")
    if export_dir is not None:
        os.makedirs(export_dir, exist_ok=True)
        for name, sh in (("mosaic", mosaic), ("probability", prob)):
            path = os.path.join(export_dir, f"obstacle_{name}.json")
            save_sheaf(path, sh)
            print(f"  exported {path}")
    return all(checks)


def _run_coins(export_dir=None) -> bool:
    from . import scenarios as sc

    checks: list[bool] = []
    print("scenario coins")
    for variant in ("mosaic", "counts", "value"):
        sh = sc.build_coin_sheaf(variant)
        rep = verify_gluing(sh)
        _expect(checks, f"{variant} sheaf gluing", rep.ok,
                f"{rep.checked_pairs} pairs")
    counts_sheaf = sc.build_coin_sheaf("value")
    t = counts_sheaf.topology
    u2 = t.open_for(["overlap", "right"])
    ov = t.open_for(["overlap"])
    detections = sp.make_point(counts_sheaf.stalk(u2.id),
                               (3, 0, 1, 0, 0, 0, 2, 0))
    cents = counts_sheaf.restrict(u2, ov, detections).coords[0]
    _expect(checks, "counts (3,1,0,2) valued in cents", cents == 58.0,
            f"{cents:g} cents")
    counts = sc.build_coin_sheaf("counts")
    t = counts.topology
    u1 = t.open_for(["left", "overlap"])
    u2 = t.open_for(["overlap", "right"])
    ov = t.open_for(["overlap"])
    a = Assignment(counts)
    left = sp.make_point(counts.stalk(u1.id), (3, 1, 0, 2, 5, 5))
    a.set(u1, left)
    a.set(ov, counts.restrict(u1, ov, left))
    # right camera's detections classify to (3, 1, 0, 1): one quarter short
    a.set(u2, sp.make_point(counts.stalk(u2.id), (3, 0, 1, 0, 0, 0, 1, 0)))
    r = consistency_radius(a)
    _expect(checks, "conflicting counts radius", abs(r.radius - 1.0) < 1e-12,
            f"radius {r.radius:g} (count vectors differ by 1 in one slot)")
    if export_dir is not None:
        os.makedirs(export_dir, exist_ok=True)
        for variant in ("mosaic", "counts", "value"):
            path = os.path.join(export_dir, f"coins_{variant}.json")
            save_sheaf(path, sc.build_coin_sheaf(variant))
            print(f"  exported {path}")
    return all(checks)


def cmd_scenario(args) -> int:
    if args.name == "sar":
        cases = [args.case] if args.case else [1, 2, 3]
        outcomes = [_run_sar_case(c, args.export) for c in cases]
        ok = all(outcomes)
    elif args.name == "obstacle":
        ok = _run_obstacle(args.export)
    elif args.name == "coins":
        ok = _run_coins(args.export)
    else:
        raise SpecError(f"unknown scenario {args.name!r}")
    print("scenario result:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_ANALYSIS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheafctl",
        description="Sheaf-based sensor integration: consistency, fusion, "
                    "cohomology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the sheaf axioms")
    p.add_argument("spec")
    p.add_argument("--samples", type=int, default=256,
                   help="points sampled per functoriality pair whose maps "
                        "are not all linear (linear pairs are compared "
                        "exactly)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("radius", help="consistency radius of an assignment")
    p.add_argument("spec")
    p.add_argument("assignment")
    p.add_argument("--csv", help="write the edge report CSV here")
    p.set_defaults(fn=cmd_radius)

    p = sub.add_parser("fuse", help="nearest global section to an assignment")
    p.add_argument("spec")
    p.add_argument("assignment")
    p.add_argument("--max-iter", type=int,
                   default=FusionOptions.max_iterations,
                   help="cap on iterations of the sqp route and on "
                        "Newton steps of the barrier route")
    p.add_argument("--tol", type=float, default=FusionOptions.f_tolerance,
                   help="largest gap between the residual and its proven "
                        "lower bound (linear sheaves), or decrease of "
                        "the residual a linearized step still predicts, "
                        "or that eight steps in a row gain, over 1 + the "
                        "residual (nonlinear sheaves)")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when the optimizer hit the iteration cap")
    p.add_argument("--csv", help="write the fused values on the whole "
                                 "space and the native opens as CSV here")
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("cohomology", help="Betti numbers over a cover")
    p.add_argument("spec")
    p.add_argument("--cover", nargs="*", help="open-set keys (default: subbase)")
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--lift-bins", type=int,
                   help="linearize a nonlinear sheaf with this many bins "
                        "per axis first")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("leray", help="acyclicity check for a cover")
    p.add_argument("spec")
    p.add_argument("--cover", nargs="*")
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_leray)

    p = sub.add_parser("scenario", help="run a packaged reference scenario")
    p.add_argument("name", choices=["sar", "obstacle", "coins"])
    p.add_argument("--case", type=int, choices=[1, 2, 3])
    p.add_argument("--export", help="write spec/assignment files here")
    p.set_defaults(fn=cmd_scenario)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SheafFuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
