"""The four benchmark workloads: seeded inputs, one op, output checks.

The program only ever sees files: a sheaf spec (JSON) and assignment
snapshots (CSV), written from the seed with ``specio.save_sheaf`` and
``specio.save_assignment`` by ``Workload.generate``.  Ops call public sheaffuse functions through
their modules (``specio.load_sheaf``, not a from-import), so the traced
run sees every call.  Each op times its own stages; the checks run
outside the timed region.

Why these four: ``sar_stream`` is the nonlinear fusion path, where the
time goes to the geometry kernels, stalk distances and restriction.
``chain_fuse`` runs the same op on a linear sheaf, fused in kernel
coordinates with no kernel calls and many more comparable pairs.
``chain_structure`` is the axiom and cohomology work of ``sheafctl
check`` and ``leray`` on a cold spec, which grows superlinearly with the
number of opens.  ``sar_lift`` is ``sheafctl cohomology --lift-bins 2``,
the only workload that runs ``stochastic_lift``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sheaffuse import (
    cohomology,
    consistency,
    fusion,
    scenarios,
    sheaf,
    spaces,
    specio,
    topology,
)

clock = time.perf_counter

# A chain of n cameras has F(2n+1) opens: 4 -> 34, 5 -> 89, 6 -> 233.
CHAIN_CAMERAS = 5
CAMERA_DIM = 2
CHAIN_NOISE = 0.5
# sigma of the true section's kernel coordinates.  Nelder-Mead starts
# from zero, so the fused residual grows with it: its median over 48
# snapshots is 7.7 at 16, 9.2 at 17 and 10.7 at 18.  17 keeps it at the
# 9-10 the chain was first measured at with noise 0.5.
SECTION_SCALE = 17.0
# The chain's restriction rows and the warm-up snapshots do not depend
# on the run seed, so set-up does the same work in every run.
FIXED_SEED = 2016
FUNCTORIALITY_SAMPLES = 8
LIFT_BINS = 2
MAX_DEGREE = 2
# more distinct snapshots than a run gets through, so no snapshot
# weighs twice in a run's median
STREAM_SNAPSHOTS = 96
FUSED_RADIUS_TOL = 1e-6
# recorded SAR cases: (consistency radius, cap on the fused residual)
SAR_RECORDED = {1: (14.4266, 2.4817), 2: (13.4575, 8.8636),
                3: (103.0955, 39.2702)}
RADIUS_TOL = 5e-5       # half a unit in the last recorded digit
# Recorded cases 1 and 2 report the same ATC and field velocities, so
# they are taken as two recordings of one flight and the spread of their
# readings as the measurement noise SAR snapshots get.  Case 3 is another
# track (other velocities, a satellite fix 1.9 deg away); with it in the
# spread, every noisy snapshot came out as inconsistent as case 3.
REPEAT_CASES = (1, 2)
RESIDUAL_SLACK = 1e-3
COLUMN_SUM_TOL = 1e-12


@dataclass
class Outcome:
    """Timings and outputs of one op."""

    latency_s: float
    check_s: float
    cohomology_s: float | None = None
    residual: float | None = None
    dd_residual: float | None = None
    betti: list | None = None
    results: tuple = field(default=(), repr=False)


class Workload:
    """``generate`` writes the inputs; ``setup`` loads the spec and runs
    one uncounted warm-up op; ``op(i)`` is the i-th timed op."""

    name = ""
    # ops in the traced run after its set-up
    trace_ops = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.spec = self.dir / "spec.json"

    def generate(self) -> None:
        """Write the spec and snapshots for this seed into ``dir``."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Outcome:
        raise NotImplementedError

    def check(self, i: int, out: Outcome) -> list[str]:
        """Problems with the outputs of op i; empty when they are right."""
        raise NotImplementedError

    def info(self) -> dict:
        return {}


# -- inputs ---------------------------------------------------------------

def chain_sheaf(cameras: int = CHAIN_CAMERAS) -> sheaf.Sheaf:
    """Linear chain: camera i sees c_i and the overlaps v_{i-1}, v_i;
    camera stalks are R^CAMERA_DIM, overlap stalks are R, and each
    camera reads an overlap through a fixed random row."""
    rng = random.Random(FIXED_SEED)
    universe = topology.EntityUniverse(
        [f"c{i}" for i in range(cameras)] +
        [f"v{i}" for i in range(cameras - 1)])
    views = [[f"c{i}"] + [f"v{j}" for j in (i - 1, i) if 0 <= j < cameras - 1]
             for i in range(cameras)]
    t = topology.generate_topology(universe, views)
    cams = [t.open_for(v) for v in views]
    overlaps = [t.open_for([f"v{i}"]) for i in range(cameras - 1)]
    stalks = {c: spaces.euclidean(CAMERA_DIM) for c in cams}
    stalks.update({v: spaces.euclidean(1) for v in overlaps})
    maps = []
    for i, v in enumerate(overlaps):
        for cam in (cams[i], cams[i + 1]):
            row = [rng.uniform(0.5, 1.5) for _ in range(CAMERA_DIM)]
            maps.append(sheaf.RestrictionMap(cam, v, sheaf.Linear([row])))
    return sheaf.complete_unions(sheaf.Sheaf(t, stalks, maps))


def save_chain_spec(path: Path, sh: sheaf.Sheaf) -> None:
    basis = sh.topology.basis
    cams = [b.key() for b in basis if any(m.startswith("c") for m in b.members)]
    specio.save_sheaf(path, sh, subbase_keys=cams)


def chain_snapshot(sh: sheaf.Sheaf, rng: np.random.Generator):
    """A random global section plus noise on every camera and overlap."""
    top = sh.topology.full
    k = sh.kernel_basis(top.id)
    section = spaces.make_point(
        sh.stalk(top.id), k @ rng.normal(0.0, SECTION_SCALE, k.shape[1]))
    truth = consistency.pullback_global(sh, section)
    a = consistency.Assignment(sh)
    for b in sh.topology.basis:
        exact = truth.values[b.id]
        noisy = np.asarray(exact.coords) + rng.normal(
            0.0, CHAIN_NOISE, len(exact.coords))
        a.set(b, spaces.make_point(exact.space, noisy))
    return a


def save_sar_spec(path: Path, sh: sheaf.Sheaf) -> None:
    t = sh.topology
    specio.save_sheaf(
        path, sh,
        subbase_keys=[t.open_for(v).key()
                      for v in scenarios.SAR_SUBBASE.values()],
        weights=scenarios.SarParameters().weights.as_dict(),
        lift_ranges=scenarios.sar_lift_ranges())


def sar_noise(sh: sheaf.Sheaf) -> dict:
    """Sensor noise sigma per reading coordinate, by open id: the sample
    standard deviation of that coordinate over REPEAT_CASES."""
    cases = [scenarios.sar_case_assignment(sh, c) for c in REPEAT_CASES]
    return {oid: np.std([a.values[oid].coords for a in cases], axis=0,
                        ddof=1)
            for oid in cases[0].values}


def sar_snapshot(sh: sheaf.Sheaf, case: int, sigma: dict,
                 rng: np.random.Generator):
    """A recorded SAR case with Gaussian sensor noise on every reading."""
    a = scenarios.sar_case_assignment(sh, case)
    for oid, point in list(a.values.items()):
        noisy = np.asarray(point.coords) + rng.normal(0.0, sigma[oid])
        a.set(oid, spaces.make_point(point.space, noisy))
    return a


def subbase_cover(sh: sheaf.Sheaf, spec: dict) -> cohomology.Cover:
    """The default cover of ``sheafctl cohomology`` and ``leray``."""
    t = sh.topology
    return cohomology.Cover(tuple(t.open_for(s) for s in spec["subbase"]))


def lift_grids(sh: sheaf.Sheaf, spec: dict, bins: int) -> dict:
    """Uniform bin grids over the spec's lift ranges, per basis open."""
    grids = {}
    for b in sh.topology.basis:
        ranges = spec["lift_ranges"][b.key()]
        grids[b.id] = cohomology.uniform_grid(
            [lo for lo, _ in ranges], [hi for _, hi in ranges], bins)
    return grids


# -- workloads -------------------------------------------------------------

class _Stream(Workload):
    """One op: load a snapshot, its consistency radius, then fuse."""

    trace_ops = 6

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.snapshots = [self.dir / f"snap{i:03d}.csv"
                          for i in range(STREAM_SNAPSHOTS)]
        self.warmup = self.dir / "warmup.csv"
        self.sheaf = None

    def setup(self):
        self.sheaf, _ = specio.load_sheaf(self.spec)
        self._run(self.warmup)

    def op(self, i):
        return self._run(self.snapshots[i % len(self.snapshots)])

    def _run(self, path):
        t0 = clock()
        a = specio.load_assignment(path, self.sheaf)
        t1 = clock()
        radius = consistency.consistency_radius(a)
        t2 = clock()
        fused = fusion.fuse(a, fusion.FusionOptions(seed=0))
        t3 = clock()
        return Outcome(t3 - t0, t2 - t1, residual=fused.residual,
                       results=(radius, fused))

    def check(self, i, out):
        _, fused = out.results
        r = consistency.consistency_radius(fused.fused).radius
        if not r <= FUSED_RADIUS_TOL:
            return [f"snapshot {i}: fused radius {r:.3g}"]
        return []


class SarStream(_Stream):
    name = "sar_stream"

    def generate(self):
        sh = scenarios.build_sar_sheaf()
        save_sar_spec(self.spec, sh)
        sigma = sar_noise(sh)
        rng = np.random.default_rng(self.seed)
        # the recorded cases come first and are checked against their
        # recorded values; the rest are noisy copies
        for i, path in enumerate(self.snapshots):
            case = i % 3 + 1
            a = (scenarios.sar_case_assignment(sh, case) if i < 3
                 else sar_snapshot(sh, case, sigma, rng))
            specio.save_assignment(path, a)
        specio.save_assignment(self.warmup,
                               scenarios.sar_case_assignment(sh, 1))

    def check(self, i, out):
        problems = super().check(i, out)
        index = i % len(self.snapshots)
        if index < 3:  # snapshots 0, 1, 2 are recorded cases 1, 2, 3
            case = index + 1
            want_radius, cap = SAR_RECORDED[case]
            radius, fused = out.results
            if not abs(radius.radius - want_radius) <= RADIUS_TOL:
                problems.append(f"case {case}: radius {radius.radius:.6f}, "
                                f"recorded {want_radius}")
            if not fused.residual <= cap + RESIDUAL_SLACK:
                problems.append(f"case {case}: fused residual "
                                f"{fused.residual:.6f} over {cap}")
        return problems


class ChainFuse(_Stream):
    name = "chain_fuse"

    def generate(self):
        sh = chain_sheaf()
        save_chain_spec(self.spec, sh)
        rng = np.random.default_rng(self.seed)
        for path in self.snapshots:
            specio.save_assignment(path, chain_snapshot(sh, rng))
        specio.save_assignment(
            self.warmup,
            chain_snapshot(sh, np.random.default_rng(FIXED_SEED)))

    def info(self):
        return {"chain_cameras": CHAIN_CAMERAS,
                "chain_opens": len(self.sheaf.topology)}


class ChainStructure(Workload):
    """One op: cold spec load, gluing and functoriality checks, Betti
    numbers over the camera cover and the Leray check."""

    name = "chain_structure"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.opens = 0

    def generate(self):
        save_chain_spec(self.spec, chain_sheaf())

    def setup(self):
        self.op(0)  # the op loads the spec itself

    def op(self, i):
        t0 = clock()
        sh, spec = specio.load_sheaf(self.spec)
        t1 = clock()
        glue = sheaf.verify_gluing(sh)
        func = sheaf.verify_functoriality(sh, samples=FUNCTORIALITY_SAMPLES)
        t2 = clock()
        cover = subbase_cover(sh, spec)
        table = cohomology.betti(sh, cover, MAX_DEGREE)
        leray = cohomology.leray_check(sh, cover, MAX_DEGREE)
        t3 = clock()
        self.opens = len(sh.topology)
        return Outcome(t3 - t0, t2 - t1, cohomology_s=t3 - t2,
                       betti=table.betti,
                       results=(sh, glue, func, table, leray))

    def check(self, i, out):
        sh, glue, func, table, leray = out.results
        problems = []
        if not glue.ok:
            problems.append(str(glue))
        if not func.ok:
            problems.append(str(func))
        want = [sh.dim(sh.topology.full.id)] + [0] * MAX_DEGREE
        if table.betti != want:
            problems.append(f"betti {table.betti}, expected {want}")
        if not (leray.verdict and leray.tables_equal):
            problems.append(f"leray: {leray}")
        return problems

    def info(self):
        return {"chain_cameras": CHAIN_CAMERAS, "chain_opens": self.opens,
                "functoriality_samples": FUNCTORIALITY_SAMPLES}


class SarLift(Workload):
    """One op: load the SAR spec, lift it at LIFT_BINS bins, measure
    max |d.d| of the lifted complex, then its Betti numbers over the
    subbase cover."""

    name = "sar_lift"

    def generate(self):
        save_sar_spec(self.spec, scenarios.build_sar_sheaf())

    def setup(self):
        self.op(0)  # the op loads the spec itself

    def op(self, i):
        t0 = clock()
        sh, spec = specio.load_sheaf(self.spec)
        t1 = clock()
        lifted = cohomology.lift_sheaf(sh, lift_grids(sh, spec, LIFT_BINS))
        t2 = clock()
        cover = subbase_cover(lifted, spec)
        cx = cohomology.build_complex(lifted, cover, MAX_DEGREE)
        dd = [cx.coboundaries[k + 1] @ cx.coboundaries[k]
              for k in range(len(cx.coboundaries) - 1)]
        worst = max((float(np.max(np.abs(m))) for m in dd if m.size),
                    default=0.0)
        t3 = clock()
        table = cohomology.betti(lifted, cover, MAX_DEGREE)
        t4 = clock()
        return Outcome(t4 - t0, t3 - t2, cohomology_s=(t2 - t1) + (t4 - t3),
                       dd_residual=worst, betti=table.betti,
                       results=(lifted,))

    def check(self, i, out):
        (lifted,) = out.results
        problems = []
        for (src, dst), rm in sorted(lifted.edges.items()):
            m = rm.body.mat
            if np.any(m < 0) or np.max(np.abs(m.sum(axis=0) - 1.0)) > \
                    COLUMN_SUM_TOL:
                problems.append(f"lift of {src}->{dst} is not "
                                f"column-stochastic")
        return problems

    def info(self):
        return {"lift_bins": LIFT_BINS}


WORKLOADS = {w.name: w for w in (SarStream, ChainFuse, ChainStructure,
                                 SarLift)}
