import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sheaffuse import (
    EntityUniverse,
    Identity,
    Linear,
    RestrictionMap,
    Sheaf,
    complete_unions,
    euclidean,
    generate_topology,
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
    return complete_unions(Sheaf(t, stalks, restrictions))


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
    return complete_unions(Sheaf(t, stalks, maps))


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
    return complete_unions(Sheaf(sh.topology, sh.stalks, edges.values()))


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
    return complete_unions(Sheaf(t, stalks, edges))


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
    sh = complete_unions(Sheaf(t, stalks, restrictions))
    cover_sets = tuple(t.open_for(a) for a in arcs)
    return sh, cover_sets
