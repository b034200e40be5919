import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sheaffuse import (
    Affine,
    Builtin,
    EntityUniverse,
    Identity,
    Linear,
    RestrictionMap,
    Sheaf,
    circle,
    euclidean,
    generate_topology,
    product,
    simplex,
)


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_subbase(rng, n_entities, n_sets):
    names = [f"e{i}" for i in range(n_entities)]
    universe = EntityUniverse(names)
    subbase = []
    for _ in range(n_sets):
        size = rng.randint(1, n_entities)
        subbase.append(tuple(rng.sample(names, size)))
    return universe, subbase


def random_linear_sheaf(rng, n_entities=3, dims_per_entity=(1, 2),
                        include_full=True, conjugate=True,
                        ensure_diamond=False):
    """Random exactly-functorial linear sheaf.

    Every entity owns a block of master coordinates; each basis stalk is
    the block sum of its entities conjugated by a random invertible
    matrix, and restrictions are the conjugated coordinate projections.
    Functoriality and gluing hold by construction.  ``ensure_diamond``
    forces two overlapping two-entity opens so at least one pair of
    opens is joined by multiple restriction paths.
    """
    universe, subbase = random_subbase(rng, n_entities,
                                       rng.randint(2, n_entities + 1))
    if ensure_diamond and n_entities >= 3:
        names = universe.names
        shared = rng.randrange(n_entities)
        left = (shared + 1) % n_entities
        right = (shared + 2) % n_entities
        subbase += [(names[left], names[shared]),
                    (names[right], names[shared])]
    if include_full:
        subbase.append(tuple(universe.names))
    t = generate_topology(universe, subbase)
    entity_dims = [rng.randint(*dims_per_entity)
                   for _ in range(len(universe))]
    offsets = np.cumsum([0] + entity_dims)

    def master_indices(mask):
        idx = []
        for i in range(len(universe)):
            if mask >> i & 1:
                idx.extend(range(offsets[i], offsets[i + 1]))
        return idx

    transforms = {}
    stalks = {}
    for b in t.basis:
        d = len(master_indices(b.mask))
        if conjugate:
            while True:
                m = np.array([[rng.gauss(0, 1) for _ in range(d)]
                              for _ in range(d)])
                if d == 0 or abs(np.linalg.det(m)) > 0.1:
                    break
        else:
            m = np.eye(d)
        transforms[b.id] = m
        stalks[b] = euclidean(d)

    restrictions = []
    for big in t.basis:
        for small in t.basis:
            if small.mask != big.mask and small.mask & big.mask == small.mask:
                rows = master_indices(small.mask)
                cols = master_indices(big.mask)
                proj = np.zeros((len(rows), len(cols)))
                for r, master in enumerate(rows):
                    proj[r, cols.index(master)] = 1.0
                mat = transforms[small.id] @ proj @ np.linalg.inv(
                    transforms[big.id]
                )
                restrictions.append(RestrictionMap(big, small, Linear(mat)))
    return Sheaf(t, stalks, restrictions)


def random_product_sheaf(rng, n_entities=4):
    """Random sheaf whose entities each own one factor: R^1, R^2, a
    circle or a simplex.  A basis stalk is the product of its entities'
    factors in entity order, and each restriction edge keeps the
    target's factors and adds 360 to every circle coordinate it keeps,
    so restricted angles need wrapping and composites differ by path.
    The whole space is a basis open."""
    universe, subbase = random_subbase(rng, n_entities,
                                       rng.randint(2, n_entities + 1))
    subbase.append(tuple(universe.names))
    t = generate_topology(universe, subbase)
    factors = [rng.choice([euclidean(1), euclidean(2), circle(), simplex(3)])
               for _ in universe.names]

    def owned(mask):
        return [i for i in range(len(factors)) if mask >> i & 1]

    stalks = {b: product([factors[i] for i in owned(b.mask)])
              for b in t.basis}
    restrictions = []
    for big in t.basis:
        starts, col = {}, 0
        for i in owned(big.mask):
            starts[i] = col
            col += factors[i].dim
        for small in t.basis:
            if small.mask == big.mask or small.mask & big.mask != small.mask:
                continue
            rows, offset = [], []
            for i in owned(small.mask):
                for k in range(factors[i].dim):
                    row = [0.0] * col
                    row[starts[i] + k] = 1.0
                    rows.append(row)
                    offset.append(360.0 if factors[i].kind == "circle"
                                  else 0.0)
            restrictions.append(RestrictionMap(big, small,
                                               Affine(rows, offset)))
    return Sheaf(t, stalks, restrictions)


def camera_chain_sheaf(cameras=5, camera_dim=2, seed=2016):
    """Linear chain: camera i sees c_i and the overlaps v_{i-1}, v_i;
    camera stalks are R^camera_dim, overlap stalks R, and each camera
    reads an overlap through a random row."""
    rng = random.Random(seed)
    universe = EntityUniverse(
        [f"c{i}" for i in range(cameras)] +
        [f"v{i}" for i in range(cameras - 1)])
    views = [[f"c{i}"] + [f"v{j}" for j in (i - 1, i) if 0 <= j < cameras - 1]
             for i in range(cameras)]
    t = generate_topology(universe, views)
    cams = [t.open_for(v) for v in views]
    overlaps = [t.open_for([f"v{i}"]) for i in range(cameras - 1)]
    stalks = {c: euclidean(camera_dim) for c in cams}
    stalks.update({v: euclidean(1) for v in overlaps})
    maps = []
    for i, v in enumerate(overlaps):
        for cam in (cams[i], cams[i + 1]):
            row = [rng.uniform(0.5, 1.5) for _ in range(camera_dim)]
            maps.append(RestrictionMap(cam, v, Linear([row])))
    return Sheaf(t, stalks, maps)


def noisy_sar_snapshots(sh, count, seed):
    """Recorded SAR cases 1, 2, 3, 1, ... with Gaussian noise on every
    reading, at each coordinate's sample standard deviation over cases 1
    and 2 (zero where they agree)."""
    from sheaffuse import make_point
    from sheaffuse.scenarios import sar_case_assignment

    pair = [sar_case_assignment(sh, c) for c in (1, 2)]
    sigma = {oid: np.std([a.values[oid].coords for a in pair], axis=0,
                         ddof=1)
             for oid in pair[0].values}
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        a = sar_case_assignment(sh, i % 3 + 1)
        for oid, point in list(a.values.items()):
            noisy = np.asarray(point.coords) + rng.normal(0.0, sigma[oid])
            a.set(oid, make_point(point.space, noisy))
        out.append(a)
    return out


def lifted_sar_cases(bins):
    """The SAR sheaf lifted at ``bins`` bins per axis over its lift
    ranges, as ``sheafctl cohomology --lift-bins`` lifts it, and its
    three recorded cases read as point masses: each reading becomes the
    distribution with all its mass on the bin that holds it."""
    from sheaffuse import Assignment, make_point, uniform_grid
    from sheaffuse.cli import _lift
    from sheaffuse.scenarios import (
        build_sar_sheaf,
        sar_case_assignment,
        sar_lift_ranges,
    )

    sh = build_sar_sheaf()
    ranges = sar_lift_ranges()
    lifted = _lift(sh, {"lift_ranges": ranges}, bins)
    cases = []
    for case in (1, 2, 3):
        a = Assignment(lifted)
        for oid, point in sar_case_assignment(sh, case).values.items():
            axes = ranges[sh.topology.opens[oid].key()]
            grid = uniform_grid([lo for lo, _ in axes],
                                [hi for _, hi in axes], bins)
            mass = np.zeros(grid.size)
            mass[np.ravel_multi_index(grid.locate(point.coords),
                                      grid.shape)] = 1.0
            a.set(oid, make_point(lifted.stalk(oid), mass))
        cases.append(a)
    return lifted, cases


def with_corrupted_edge(sh, rng):
    """Copy of a linear sheaf with one restriction edge, chosen at
    random, scaled, perturbed, zeroed or cut to rank one."""
    edges = dict(sh.edges)
    key = rng.choice(sorted(edges))
    rm = edges[key]
    m = np.array(rm.body.matrix(sh.stalk(key[0]).dim))
    kind = rng.choice(["scale", "noise", "zero", "rank1"])
    if kind == "scale":
        m = 2.0 * m
    elif kind == "noise":
        m = m + np.array([[rng.gauss(0.0, 1.0) for _ in range(m.shape[1])]
                          for _ in range(m.shape[0])])
    elif kind == "zero":
        m = 0.0 * m
    else:
        m[:, 1:] = 0.0
    edges[key] = RestrictionMap(rm.source, rm.target, Linear(m))
    return Sheaf(sh.topology, sh.stalks, edges.values())


def with_native_union(sh, oid):
    """Copy of a linear sheaf in which the pullback open ``oid`` has a
    stalk of its own: R^dim in kernel coordinates, with edges into its
    parts and from every open with a stalk that contains it."""
    t = sh.topology
    w = t.opens[oid]
    stalks = dict(sh.stalks)
    stalks[oid] = euclidean(sh.dim(oid))
    edges = list(sh.edges.values())
    for p in sh.pullback(oid).parts:
        edges.append(RestrictionMap(
            w, t.opens[p], Linear(sh.restriction_matrix(oid, p))))
    for n in sh.stalks:
        big = t.opens[n]
        if big.mask != w.mask and w.mask & big.mask == w.mask:
            edges.append(RestrictionMap(
                big, w, Linear(sh.restriction_matrix(n, oid))))
    return Sheaf(t, stalks, edges)


def constant_circle_sheaf():
    """Constant-coefficient sheaf on four arcs with cyclic overlaps."""
    u = EntityUniverse(["a", "ab", "b", "bc", "c", "cd", "d", "da"])
    arcs = [("da", "a", "ab"), ("ab", "b", "bc"),
            ("bc", "c", "cd"), ("cd", "d", "da")]
    t = generate_topology(u, arcs)
    stalks = {b: euclidean(1) for b in t.basis}
    restrictions = [
        RestrictionMap(big, small, Identity())
        for big in t.basis for small in t.basis
        if small.mask != big.mask and small.mask & big.mask == small.mask
    ]
    sh = Sheaf(t, stalks, restrictions)
    cover_sets = tuple(t.open_for(a) for a in arcs)
    return sh, cover_sets


def nested_native_union():
    """A linear sheaf on basis {e0}, {e1}, {e2}, {e2,e3} whose union
    W = {e0,e1} has a stalk of its own; the pullback opens {e0,e1,e2}
    and the whole space contain W.  Returns ``(sheaf, W)``."""
    base = random_linear_sheaf(random.Random(7), n_entities=4,
                               include_full=False)
    w = base.topology.open_for(["e0", "e1"])
    return with_native_union(base, w.id), w


def nan_sheaf(calls):
    """The whole space R over {a} and {b}: an identity to {b}, and to
    {a} a builtin that records its input in ``calls`` and returns NaN."""
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [("a",), ("b",)])
    a, b = t.open_for(["a"]), t.open_for(["b"])

    def nan(coords):
        calls.append(coords)
        return (math.nan,)

    return Sheaf(
        t, {t.full: euclidean(1), a: euclidean(1), b: euclidean(1)},
        [RestrictionMap(t.full, a, Builtin("nan", nan)),
         RestrictionMap(t.full, b, Identity())],
    )
