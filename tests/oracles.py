"""Independent reference implementations used to freeze expected values.

Everything here deliberately avoids the library's own code paths:
closures by fixpoint iteration, distances by alternative formulas,
agreement spaces by stacked-constraint nullspaces, functoriality by
applying every restriction-edge path.  The exceptions are the library's
former routines, kept as references for the ones that replaced them:
``all_pairs_gluing``, the gluing check over every pair of opens, for
the native-union check; ``reference_basis_chain``, a breadth-first
search per pair of native opens, for the chains a sheaf builds once;
``reference_cells``, a search over every edge then a clip, for the
binning by interior edges; ``reference_dist``, each factor's distance
found by its kind on every call, for the metrics a space compiles
once, and ``layered_distances``, the distance vector through
``make_point``, ``reference_restrict_coords`` and it, for fusion's
compiled plan; ``reference_restrict_coords`` and
``reference_ambient_matrix``, every chain run whole from the first part
of the source that carries it, for the restrictions a sheaf compiles
once; ``all_pairs_radius``, the consistency-radius
loop over every comparable pair, for the defined-pair loop;
``pullback_every_open``, the restriction of a global section to every
open in turn, for the pullback that restricts it once per native open;
the ``reference_*`` cohomology routines, for the one cochain-complex
routine over a nerve walk and the Leray check on sub-posets and cones;
``global_sections_via_h0``, the kernel of d^0 over the full cover;
``assignment_distance``, ``is_epsilon_approximate``,
``comparable_pairs``, ``distance``, ``full_cover``,
``lipschitz_bound``, ``sample_stalk`` and ``SheafMismatch``, which the
library does not need; ``restrict_sheaf``, the sheaf on an open rebuilt
with its own universe, topology and stalks, for the Betti numbers of
an open read from the part of the sheaf's own poset inside it;
``reference_sub_topology``, built from every open inside a mask, for
``restrict_sheaf``'s topology built from the basis opens inside it;
``reference_lift_sheaf``, one ``stochastic_lift`` per edge on the whole
source grid, for the lift that samples each source grid once;
``reference_minimax_step``, the sqp model assembling a fresh KKT matrix
for each working set and keeping its bookkeeping in NumPy, for the
model that takes each from one bordered matrix; and
``nelder_mead``, the derivative-free simplex search that fused simplex,
discrete and nonlinear sheaves, for the minimax routes.
"""

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize

from sheaffuse import _kernels as K
from sheaffuse import spaces as sp
from sheaffuse._linalg import nullspace, numeric_rank
from sheaffuse.cohomology import (
    LIFT_SUBDIVISIONS,
    MAX_STALK_BINS,
    BettiTable,
    CochainComplex,
    Cover,
    LerayReport,
    _betti_table,
    stochastic_lift,
)
from sheaffuse.consistency import (
    Assignment,
    EdgeError,
    consistency_radius,
    nan_error,
)
from sheaffuse.errors import (
    IntersectionNotOpen,
    NonlinearSheaf,
    NotComparable,
    SheafFuseError,
    SpaceMismatch,
    UnmappedBin,
)
from sheaffuse.sheaf import Chain, GluingReport, Linear, RestrictionMap, Sheaf
from sheaffuse.topology import EntityUniverse, OpenSet, Topology


def fixpoint_closure(masks, full):
    """Close a family under pairwise union/intersection until stable,
    always including the empty set and the full set."""
    family = set(masks) | {0, full}
    while True:
        new = set()
        items = list(family)
        for i, a in enumerate(items):
            for b in items[i:]:
                for m in (a | b, a & b):
                    if m not in family:
                        new.add(m)
        if not new:
            return family
        family |= new


def subset_pairs(masks):
    """All ordered (smaller, larger) pairs of nonempty masks by a direct
    quadratic scan."""
    out = []
    for v in masks:
        for u in masks:
            if v and u and v != u and v & u == v:
                out.append((v, u))
    return out


def comparable_pairs(t: Topology) -> list[tuple[OpenSet, OpenSet]]:
    """All ordered pairs (smaller, larger) of nonempty opens with V strictly
    inside U, by the larger open's id and then the smaller's."""
    nonempty = t.opens[1:]   # the empty open sorts first
    return [(v, u) for u in nonempty for v in nonempty
            if v.mask != u.mask and v.mask & u.mask == v.mask]


def axiom_violations(masks, full):
    """Direct check of the closure axioms; returns number of violations."""
    family = set(masks)
    count = 0
    if full not in family:
        count += 1
    if 0 not in family:
        count += 1
    items = sorted(family)
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            if a | b not in family:
                count += 1
            if a & b not in family:
                count += 1
    return count


def great_circle_km(lon_w1, lat1, lon_w2, lat2, radius=6371.0):
    """Great-circle distance via the atan2 form of the Vincenty sphere
    formula (different route than the haversine used by the library)."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dlam = math.radians(lon_w1 - lon_w2)
    num = math.sqrt(
        (math.cos(phi2) * math.sin(dlam)) ** 2
        + (math.cos(phi1) * math.sin(phi2)
           - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)) ** 2
    )
    den = (math.sin(phi1) * math.sin(phi2)
           + math.cos(phi1) * math.cos(phi2) * math.cos(dlam))
    return radius * math.atan2(num, den)


def reference_dist(space, a, b, off):
    """The distance on one factor whose coordinates start at ``off``,
    by a chain of kind comparisons: the routine that ``ValueSpace.metrics``
    compiles once per space."""
    kind = space.kind
    if kind == sp.EUCLIDEAN:
        s = 0.0
        for i in range(off, off + space.dim):
            diff = a[i] - b[i]
            s += diff * diff
        return space.weight * math.sqrt(s)
    if kind == sp.CIRCLE:
        return space.weight * K.circle_dist_deg(a[off], b[off])
    if kind == sp.TIME:
        return space.weight * abs(a[off] - b[off])
    if kind == sp.GEO2D:
        return space.weight * K.haversine_km(a[off], a[off + 1],
                                             b[off], b[off + 1])
    if kind == sp.GEO3D:
        ground = K.haversine_km(a[off], a[off + 1], b[off], b[off + 1])
        dalt = (a[off + 2] - b[off + 2]) / 1000.0
        return space.weight * math.hypot(ground, dalt)
    if kind == sp.DISCRETE:
        return 0.0 if a[off] == b[off] else space.weight
    if kind == sp.SIMPLEX:
        s = 0.0
        for i in range(off, off + space.dim):
            s += abs(a[i] - b[i])
        return space.weight * 0.5 * s
    raise SpaceMismatch(f"unknown space kind {kind!r}")


def distance(space: sp.ValueSpace, x: sp.Point, y: sp.Point) -> float:
    """Weighted pseudometric distance between two points of a space."""
    if x.space != space or y.space != space:
        raise SpaceMismatch("points do not belong to the given space")
    return sp.coord_distance(space, x.coords, y.coords)


def layered_distances(a, coords):
    """The fusion distance vector at whole-space coordinates ``coords``
    through the layers that fusion once called one evaluation at a time:
    ``make_point`` on the whole space, ``reference_restrict_coords`` to
    each defined open in id order and ``reference_dist`` on each factor;
    a NaN raises, naming the open."""
    sh = a.sheaf
    top = sh.topology.full
    section = sp.make_point(sh.stalk(top.id), coords).coords
    out = []
    for oid in a.defined_ids():
        restricted = reference_restrict_coords(sh, top.id, oid, section)
        for c, lo, _ in sh.stalk(oid).factors:
            d = reference_dist(c, a.values[oid].coords, restricted, lo)
            if d != d:
                raise nan_error(sh.topology.opens[oid], top)
            out.append(d)
    return out


def max_common_distance(a_vals, b_vals, metric):
    """Sup distance over keys defined in both dicts, by an explicit loop."""
    best = 0.0
    for key, va in a_vals.items():
        if key in b_vals:
            best = max(best, metric(key, va, b_vals[key]))
    return best


def agreement_dim(opens, stalk_dim, restrict_matrix):
    """Dimension of joint assignments consistent under every comparable
    restriction, by stacking all constraints and taking the nullspace.

    ``opens`` are masks; ``stalk_dim(mask)`` and
    ``restrict_matrix(big, small)`` query the sheaf under test.
    """
    offsets = {}
    total = 0
    for m in opens:
        offsets[m] = total
        total += stalk_dim(m)
    rows = []
    for v in opens:
        for u in opens:
            if v and u and v != u and v & u == v:
                mat = restrict_matrix(u, v)
                block = np.zeros((mat.shape[0], total))
                block[:, offsets[v]:offsets[v] + mat.shape[0]] = -np.eye(
                    mat.shape[0]
                )
                block[:, offsets[u]:offsets[u] + mat.shape[1]] += mat
                rows.append(block)
    if not rows:
        return total
    stacked = np.vstack(rows)
    s = np.linalg.svd(stacked, compute_uv=False)
    tol = 1e-9 * max(stacked.shape) * (s[0] if len(s) else 1.0)
    return total - int(np.sum(s > tol))


def circle_cover_betti():
    """Hand computation for the constant sheaf on four arcs with cyclic
    overlaps: explicit coboundary matrix, ranks by matrix_rank."""
    # C^0 = R^4 (arcs), C^1 = R^4 (the four overlaps ab, bc, cd, da)
    d0 = np.array([
        [-1.0, 1.0, 0.0, 0.0],   # ab: B - A
        [0.0, -1.0, 1.0, 0.0],   # bc: C - B
        [0.0, 0.0, -1.0, 1.0],   # cd: D - C
        [1.0, 0.0, 0.0, -1.0],   # da: A - D
    ])
    rank = np.linalg.matrix_rank(d0)
    return [4 - rank, 4 - rank]     # betti_0, betti_1 (no 2-fold triples)


def lift_mass_matrix(f, n_dom, n_cod):
    """Mass bookkeeping for a bin-index map via explicit dictionaries."""
    cols = []
    for i in range(n_dom):
        mass = {f(i): 1.0}
        cols.append([mass.get(j, 0.0) for j in range(n_cod)])
    return np.array(cols).T


def reference_cells(grid, points):
    """The library's former ``BinGrid.cells``: per axis, a search over
    every edge, less one and clipped to the bins, and the mask of the
    rows inside every axis's closed range."""
    idx = np.empty(points.shape, dtype=np.intp)
    inside = np.ones(len(points), dtype=bool)
    for ax, edge in enumerate(grid.edges):
        col = points[:, ax]
        inside &= (col >= edge[0]) & (col <= edge[-1])
        idx[:, ax] = np.clip(np.searchsorted(edge, col, side="right") - 1,
                             0, len(edge) - 2)
    return idx, inside


def grid_lift_reference(f, grid_in, grid_out, subdivisions=3):
    """Stochastic lift between bin grids by a per-point loop: every
    subdivision midpoint of every domain cell is mapped on its own and
    located axis by axis with a scalar searchsorted (the rightmost bin
    closed on both sides); the counts are divided by the per-cell
    sample totals.  Reads nothing of the grids but their edges."""
    def flat(cell, dims):
        idx = 0
        for c, s in zip(cell, dims):
            idx = idx * s + c
        return idx

    dom = [len(e) - 1 for e in grid_in.edges]
    cod = [len(e) - 1 for e in grid_out.edges]
    axes = []
    for edge in grid_in.edges:
        per_bin = []
        for i in range(len(edge) - 1):
            lo, hi = edge[i], edge[i + 1]
            step = (hi - lo) / subdivisions
            per_bin.append([lo + (j + 0.5) * step
                            for j in range(subdivisions)])
        axes.append(per_bin)
    m = np.zeros((math.prod(cod), math.prod(dom)))
    counts = np.zeros(math.prod(dom))
    for cell in itertools.product(*(range(s) for s in dom)):
        i = flat(cell, dom)
        for point in itertools.product(
            *(axes[ax][c] for ax, c in enumerate(cell))
        ):
            image = f(point)
            out = []
            for ax, edge in enumerate(grid_out.edges):
                v = image[ax]
                if v < edge[0] or v > edge[-1]:
                    raise ValueError(f"image {image} outside the grid")
                k = int(np.searchsorted(edge, v, side="right")) - 1
                out.append(min(max(k, 0), len(edge) - 2))
            m[flat(out, cod), i] += 1.0
            counts[i] += 1.0
    return m / counts


def all_pairs_gluing(sh: Sheaf) -> GluingReport:
    """Rank-based existence and uniqueness check for linear sheaves.

    For every pair of nonempty opens U, V the joint restriction out of
    S(U v V) must surject onto the subspace of (x, y) agreeing on
    U ^ V (existence) and be injective (uniqueness).
    """
    sh.require_linear("verify_gluing")
    t = sh.topology
    failures = []
    checked = 0
    nonempty = [o for o in t.opens if o.mask]
    for i, u in enumerate(nonempty):
        for v in nonempty[i + 1:]:
            w = t.find(u.mask | v.mask)
            inter = t.find(u.mask & v.mask)
            if w is None:
                continue
            checked += 1
            ru = sh.restriction_matrix(w.id, u.id)
            rv = sh.restriction_matrix(w.id, v.id)
            joint = np.vstack([ru, rv])
            du, dv, dw = sh.dim(u.id), sh.dim(v.id), sh.dim(w.id)
            if inter is not None and inter.mask:
                a = sh.restriction_matrix(u.id, inter.id)
                b = sh.restriction_matrix(v.id, inter.id)
                agree_dim = du + dv - numeric_rank(np.hstack([a, -b]))
            else:
                agree_dim = du + dv
            rank_joint = numeric_rank(joint)
            if rank_joint < agree_dim:
                failures.append(
                    f"existence fails for {u} and {v}: joint image has "
                    f"dimension {rank_joint}, agreement space {agree_dim}"
                )
            if rank_joint < dw:
                failures.append(
                    f"uniqueness fails for {u} and {v}: restriction out of "
                    f"{w} has kernel of dimension {dw - rank_joint}"
                )
    return GluingReport(not failures, failures, checked)


def reference_basis_chain(sh: Sheaf, src: int, dst: int) -> Chain:
    """Composite restriction between comparable native opens along the
    shortest path of restriction edges: a breadth-first search from
    ``src`` through the opens that still contain ``dst``, so ties go to
    the edge given first.  Raises NotComparable when no edge path
    reaches ``dst``."""
    if src == dst:
        return Chain((), (src,))
    t = sh.topology
    dst_mask = t.opens[dst].mask
    frontier = [(src,)]
    seen = {src}
    while frontier:
        nxt = []
        for path in frontier:
            for a, b in sh.edges:
                if a != path[-1] or b in seen:
                    continue
                if b == dst:
                    path += (b,)
                    return Chain((sh.edges[step].body
                                  for step in zip(path, path[1:])), path)
                if dst_mask & t.opens[b].mask == dst_mask:
                    seen.add(b)
                    nxt.append(path + (b,))
        frontier = nxt
    raise NotComparable(
        f"no restriction path from {t.opens[src]} to {t.opens[dst]}; "
        f"check the sheaf specification"
    )


def _reference_blocks(sh: Sheaf, src: int, dst: int):
    """The restriction from ``src`` to ``dst`` as ``(lo, hi, dst_lo,
    dst_hi, chain)`` blocks, unnarrowed: for each nonempty part of
    ``dst``, the whole ``reference_basis_chain`` from the first part of
    ``src`` that contains it, on that part's slice ``lo:hi``."""
    t = sh.topology
    if t.opens[dst].mask & t.opens[src].mask != t.opens[dst].mask:
        raise NotComparable(f"{t.opens[dst]} is not contained in "
                            f"{t.opens[src]}")

    def layout(oid):
        pb = sh.pullback(oid)
        if pb is None:
            return [(oid, 0, sh.stalk(oid).dim)]
        return [(p, off, off + dim)
                for p, off, dim in zip(pb.parts, pb.offsets, pb.dims)]

    blocks = []
    for part, dst_lo, dst_hi in layout(dst):
        mask = t.opens[part].mask
        if not mask:
            continue
        for carrier, lo, hi in layout(src):
            if mask & t.opens[carrier].mask == mask:
                blocks.append((lo, hi, dst_lo, dst_hi,
                               reference_basis_chain(sh, carrier, part)))
                break
    return blocks


def reference_restrict_coords(sh: Sheaf, src: int, dst: int, coords):
    """Bare coordinates on ``src`` restricted to ``dst`` by the walk the
    sheaf once ran on every call: each block's whole chain on its source
    slice, every body run, the image checked by ``check_coords``."""
    out = []
    for lo, hi, _, _, chain in _reference_blocks(sh, src, dst):
        part = coords[lo:hi]
        for body in chain.bodies:
            part = body(part)
        out.extend(part)
    sp.check_coords(sh.stalk(dst), out)
    return tuple(out)


def reference_ambient_matrix(sh: Sheaf, src: int, dst: int) -> np.ndarray:
    """The restriction from ``src`` to ``dst`` as a matrix on ambient
    coordinates: each block the product of its whole chain's body
    matrices, from the identity."""
    m = np.zeros((sh.stalk(dst).dim, sh.stalk(src).dim))
    for lo, hi, dst_lo, dst_hi, chain in _reference_blocks(sh, src, dst):
        block = np.eye(hi - lo)
        for body in chain.bodies:
            block = body.matrix(block.shape[0]) @ block
        m[dst_lo:dst_hi, lo:hi] = block
    return m


def edge_path_functoriality(sh, samples=16, rng=None, tol=1e-9):
    """Path independence by brute force: between every pair of
    comparable native opens, apply every path of explicit restriction
    edges, by matrix products when all bodies are linear and on sampled
    points otherwise.  Returns ``(ok, worst discrepancy)``."""
    rng = rng or random.Random(7)
    t = sh.topology
    native = [oid for oid in sh.stalks if t.opens[oid].mask]
    out_edges = {}
    for (a, b), rm in sh.edges.items():
        if a != b:
            out_edges.setdefault(a, []).append((b, rm.body))

    def paths(node, dst):
        if node == dst:
            yield ()
            return
        dst_mask = t.opens[dst].mask
        for nxt, body in out_edges.get(node, ()):
            if t.opens[nxt].mask & dst_mask == dst_mask:
                for rest in paths(nxt, dst):
                    yield (body,) + rest

    def matrix(path, dim):
        m = np.eye(dim)
        for body in path:
            step = body.matrix(m.shape[0])
            if step is None:
                return None
            m = step @ m
        return m

    def apply(path, coords):
        for body in path:
            coords = tuple(body(coords))
        return coords

    worst = 0.0
    for a in native:
        for d in native:
            a_mask, d_mask = t.opens[a].mask, t.opens[d].mask
            if d == a or d_mask & a_mask != d_mask:
                continue
            every = list(paths(a, d))
            if len(every) < 2:
                continue
            mats = [matrix(p, sh.stalk(a).dim) for p in every]
            if all(m is not None for m in mats):
                for m in mats[1:]:
                    worst = max(worst, float(np.max(np.abs(m - mats[0]),
                                                    initial=0.0)))
                continue
            for _ in range(samples):
                x = sp.sample_point(sh.stalk(a), rng).coords
                images = [apply(p, x) for p in every]
                for y in images[1:]:
                    worst = max(worst, sp.coord_distance(sh.stalk(d),
                                                         images[0], y))
    return worst <= tol, worst


class SheafMismatch(SheafFuseError):
    """Two assignments refer to different sheaves."""


def assignment_distance(a: Assignment, b: Assignment) -> float:
    """Sup over commonly defined opens of the stalk distance; 0 if none."""
    if a.sheaf is not b.sheaf:
        raise SheafMismatch("assignments belong to different sheaves")
    best = 0.0
    for oid, pa in a.values.items():
        pb = b.values.get(oid)
        if pb is None:
            continue
        d = distance(a.sheaf.stalk(oid), pa, pb)
        if d > best:
            best = d
    return best


def is_epsilon_approximate(a: Assignment, eps: float) -> bool:
    """Whether the consistency radius of ``a`` is at most ``eps``, with
    a slack of 1e-12."""
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    return consistency_radius(a).radius <= eps + 1e-12


def lipschitz_bound(sh: Sheaf) -> float:
    """Largest operator 2-norm over all composed linear restrictions."""
    sh.require_linear("lipschitz_bound")
    worst = 0.0
    for small, large in comparable_pairs(sh.topology):
        m = sh.restriction_matrix(large.id, small.id)
        if m.size:
            worst = max(worst, float(np.linalg.norm(m, 2)))
    return worst


def all_pairs_radius(a):
    """Edges of the consistency radius over every comparable pair of
    opens with both ends defined, sorted by decreasing error."""
    sh = a.sheaf
    edges = []
    for small, large in comparable_pairs(sh.topology):
        pv = a.values.get(small.id)
        pu = a.values.get(large.id)
        if pv is None or pu is None:
            continue
        restricted = reference_restrict_coords(sh, large.id, small.id,
                                               pu.coords)
        err = sp.coord_distance(sh.stalk(small.id), pv.coords, restricted)
        edges.append(EdgeError(small, large, err))
    edges.sort(key=lambda e: (-e.error, e.larger.id, e.smaller.id))
    return edges


def pullback_every_open(sh: Sheaf, s_top: sp.Point) -> Assignment:
    """Total assignment obtained by restricting a global section everywhere."""
    top = sh.topology.full
    if s_top.space != sh.stalk(top.id):
        raise SpaceMismatch("section does not lie in the stalk over X")
    a = Assignment(sh)
    for u in sh.topology.opens:
        if u.mask == 0:
            continue
        if u.id == top.id:
            a.values[u.id] = s_top
        else:
            coords = reference_restrict_coords(sh, top.id, u.id, s_top.coords)
            a.values[u.id] = sp.make_point(sh.stalk(u.id), coords)
    return a


def sample_stalk(sh: Sheaf, oid: int, rng) -> sp.Point | None:
    """Random valid point of a stalk, or None when not supported."""
    pb = sh.pullback(oid)
    if pb is None or not pb.constraints:
        return sp.sample_point(sh.stalk(oid), rng)
    try:
        k = sh.kernel_basis(oid)
    except NonlinearSheaf:
        top = sh.topology.full.id
        if top != oid and sh.pullback(top) is None:
            p = sp.sample_point(sh.stalk(top), rng)
            coords = sh.restrict_coords(top, oid, p.coords)
            return sp.make_point(sh.stalk(oid), coords)
        return None
    z = np.array([rng.gauss(0.0, 10.0) for _ in range(k.shape[1])])
    return sp.make_point(sh.stalk(oid), tuple(k @ z))


def minimax_optimum(a):
    """Nearest-global-section residual of a linear sheaf with Euclidean
    stalks on the defined opens: min over x of max_U w_U |A_U K x - b_U|,
    by SLSQP on the epigraph form (minimise t subject to
    w_U^2 |A_U K x - b_U|^2 <= t^2).  A_U and the top's kernel basis K
    come from the library; the optimizer does not.  Returns the
    objective at SLSQP's answer, so it never undercuts the optimum."""
    sh = a.sheaf
    top = sh.topology.full.id
    k = sh.kernel_basis(top)
    blocks = []
    for oid, point in a.values.items():
        space = sh.stalk(oid)
        assert space.kind == sp.EUCLIDEAN, "Euclidean stalks only"
        blocks.append((space.weight * sh.ambient_matrix(top, oid) @ k,
                       space.weight * np.asarray(point.coords, dtype=float)))

    def worst(x):
        return max(float(np.linalg.norm(m @ x - b)) for m, b in blocks)

    def gap(z, m, b):
        r = m @ z[:-1] - b
        return z[-1] ** 2 - r @ r

    def gap_grad(z, m, b):
        return np.append(-2.0 * (m @ z[:-1] - b) @ m, 2.0 * z[-1])

    x0, *_ = np.linalg.lstsq(np.vstack([m for m, _ in blocks]),
                             np.concatenate([b for _, b in blocks]),
                             rcond=None)
    last = np.zeros(len(x0) + 1)
    last[-1] = 1.0
    res = minimize(
        lambda z: z[-1], np.append(x0, worst(x0)), jac=lambda z: last,
        method="SLSQP", bounds=[(None, None)] * len(x0) + [(0.0, None)],
        constraints=[{"type": "ineq", "fun": gap, "jac": gap_grad,
                      "args": block} for block in blocks],
        options={"ftol": 1e-10, "maxiter": 1000},
    )
    assert res.success, res.message
    return worst(res.x[:-1])


def factor_distances(a, x):
    """Per factor of each defined stalk, the distance between the
    reading and the restriction of the whole-space section x, scored
    point by point through ``Sheaf.restrict`` and ``distance``
    on each factor's own points."""
    sh = a.sheaf
    top = sh.topology.full
    section = sp.make_point(sh.stalk(top.id), x)
    out = []
    for oid, reading in sorted(a.values.items()):
        restricted = sh.restrict(top, oid, section)
        for c, lo, hi in sh.stalk(oid).factors:
            out.append(distance(c, sp.make_point(c, reading.coords[lo:hi]),
                                   sp.make_point(c, restricted.coords[lo:hi])))
    return np.array(out)


def nonlinear_minimax(a, starts):
    """Nearest-global-section residual of a nonlinear sheaf whose
    whole-space stalk has real coordinates: the best over ``starts`` of
    SLSQP on the epigraph form (minimise t subject to d_i(x) <= t for
    every ``factor_distances`` entry), with finite-difference gradients
    in coordinates scaled by each start's size.  SLSQP may stop short
    without reaching an optimum, so its message is not checked; the
    value returned is the largest distance at an answer, which never
    undercuts the optimum."""
    best = math.inf
    for start in starts:
        start = np.asarray(start, dtype=float)
        scale = np.maximum(np.abs(start), 1.0)

        def gaps(z, scale=scale):
            return z[-1] - factor_distances(a, scale * z[:-1])

        last = np.zeros(len(start) + 1)
        last[-1] = 1.0
        res = minimize(
            lambda z: z[-1],
            np.append(start / scale, factor_distances(a, start).max()),
            jac=lambda z: last, method="SLSQP",
            constraints=[{"type": "ineq", "fun": gaps}],
            options={"ftol": 1e-10, "maxiter": 100},
        )
        best = min(best, float(factor_distances(a, scale * res.x[:-1]).max()))
    return best


def reference_minimax_step(d, jac, b, guess=()):
    """(p, t, lam) solving  min t + p.B p / 2  subject to  d + J p <= t,
    with lam the multipliers, or None.

    A primal active-set method on z = (p, t) from p = 0, t = max d,
    with the largest distance as the working set.  Each pass solves the
    model with the working set's constraints as equalities; a step that
    would cross another constraint stops on it and adds it, and a full
    step whose multipliers are all nonnegative is the solution, else the
    most negative one leaves the set.  A multiplier within 1e-12 of 0
    (they sum to one) counts as 0: a constraint weakly active at the
    solution would otherwise leave and re-enter, without end.  B is
    positive definite, so every working set has one solution.  A
    constraint moves the step only when its rate exceeds the rounding
    seen on the working set's own, so one in the span of the set's, such
    as a repeated distance, never enters and the system stays regular.

    ``guess`` names the constraints that were active in a nearby model,
    as the last iteration's or the step being corrected; when they are
    active here too, one solve with them as equalities is the solution,
    and the passes above run only when it is not."""
    m, n = jac.shape
    rows = np.hstack([jac, -np.ones((m, 1))])  # rows @ z <= -d
    hess = np.zeros((n + 1, n + 1))
    hess[:n, :n] = b
    # the model's gradient in z
    grad = np.zeros(n + 1)
    grad[n] = 1.0
    if len(guess):
        work = list(guess)
        solved = _reference_working_set_solve(hess, rows, work, -grad,
                                              -d[work])
        if solved is not None:
            z, lam = solved
            gap = rows @ z + d
            size = np.abs(rows) @ np.abs(z) + np.abs(d) + 1e-300
            noise = max(2.0 * float((np.abs(gap[work]) / size[work]).max()),
                        1e-12)
            if lam.min() >= -1e-12 and np.all(gap <= noise * size):
                weights = np.zeros(m)
                weights[work] = np.maximum(lam, 0.0)
                return z[:n], float(z[n]), weights
    z = np.zeros(n + 1)
    z[n] = d.max()
    work = [int(np.argmax(d))]
    for _ in range(3 * (m + n + 1)):
        solved = _reference_working_set_solve(hess, rows, work,
                                              -(hess @ z) - grad,
                                              np.zeros(len(work)))
        if solved is None:
            return None
        s, lam = solved
        rate = rows @ s
        # the working set's rates are zero but for rounding; a rate
        # within that rounding runs along the constraint, as a repeated
        # distance's does
        size = np.abs(rows) @ np.abs(s) + 1e-300
        noise = 2.0 * float((np.abs(rate[work]) / size[work]).max())
        noise = max(noise, 1e-12)
        rate[work] = 0.0
        rate[rate <= noise * size] = 0.0
        slack = np.maximum(-d - rows @ z, 0.0)
        step, enter = 1.0, None
        for i in np.flatnonzero(rate):
            if slack[i] < step * rate[i]:
                step, enter = slack[i] / rate[i], int(i)
        z += step * s
        if enter is not None:
            work.append(enter)
        elif lam.min() >= -1e-12:
            weights = np.zeros(m)
            weights[work] = np.maximum(lam, 0.0)
            return z[:n], float(z[n]), weights
        else:
            del work[int(np.argmin(lam))]
    return None


def _reference_working_set_solve(hess, rows, work, top, bottom):
    """(u, lam) solving [[H, A.T], [A, 0]] (u, lam) = (top, bottom), A
    the rows in ``work``; None when that system is singular or its
    solution is not finite."""
    n1, k = len(hess), len(work)
    kkt = np.zeros((n1 + k, n1 + k))
    kkt[:n1, :n1] = hess
    kkt[:n1, n1:] = rows[work].T
    kkt[n1:, :n1] = rows[work]
    try:
        sol = np.linalg.solve(kkt, np.concatenate([top, bottom]))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    return sol[:n1], sol[n1:]


def lp_fusion_optimum(a):
    """Nearest-global-section residual of a linear sheaf whose defined
    stalks have only simplex, time and one-dimensional Euclidean
    factors, each a weighted L1 distance: the optimum of the linear
    program  min t  subject to  scale_c sum_i u_i <= t  and
    -u <= A_c K w - b_c <= u  for each defined factor c, over kernel
    coordinates w of the whole space on which every simplex factor of
    every stalk is nonnegative and sums to one, by SciPy's HiGHS.  A_c
    and the kernel basis K come from the library; the solver does not."""
    sh = a.sheaf
    top = sh.topology.full.id
    k = sh.kernel_basis(top)
    n = k.shape[1]
    factors = []
    for oid, point in sorted(a.values.items()):
        m = sh.ambient_matrix(top, oid) @ k
        for c, lo, hi in sh.stalk(oid).factors:
            assert c.kind == sp.SIMPLEX or (
                c.dim == 1 and c.kind in (sp.TIME, sp.EUCLIDEAN)), c.kind
            scale = 0.5 * c.weight if c.kind == sp.SIMPLEX else c.weight
            factors.append((scale, m[lo:hi],
                            np.asarray(point.coords[lo:hi], dtype=float)))
    # variables: w, then t, then one slack u_i per row of every factor
    size = n + 1 + sum(len(b) for _, _, b in factors)
    upper, upper_rhs, equal, equal_rhs = [], [], [], []
    col = n + 1
    for scale, m, b in factors:
        for i in range(len(b)):
            for sign in (1.0, -1.0):
                row = np.zeros(size)
                row[:n], row[col + i] = sign * m[i], -1.0
                upper.append(row)
                upper_rhs.append(sign * b[i])
        row = np.zeros(size)
        row[col:col + len(b)], row[n] = scale, -1.0
        upper.append(row)
        upper_rhs.append(0.0)
        col += len(b)
    for oid, stalk in sh.stalks.items():
        if not stalk.has_simplex:
            continue
        m = sh.ambient_matrix(top, oid) @ k
        for c, lo, hi in stalk.factors:
            if c.kind == sp.SIMPLEX:
                for coordinate in m[lo:hi]:
                    row = np.zeros(size)
                    row[:n] = -coordinate
                    upper.append(row)
                    upper_rhs.append(0.0)
                row = np.zeros(size)
                row[:n] = m[lo:hi].sum(axis=0)
                equal.append(row)
                equal_rhs.append(1.0)
    cost = np.zeros(size)
    cost[n] = 1.0
    res = linprog(cost, A_ub=np.array(upper), b_ub=upper_rhs,
                  A_eq=np.array(equal) if equal else None,
                  b_eq=equal_rhs or None, bounds=[(None, None)] * size,
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return float(res.fun)


# The library's former Nelder-Mead search, kept as written but for its
# options, which the library's FusionOptions no longer carries.

INIT_STEP_FRACTION = 0.05
ZERO_COORD_STEP = 0.025
RESTART_NOISE_FRACTION = 0.10


@dataclass(frozen=True)
class NelderMeadOptions:
    """Each run's iteration cap and spread of simplex values at which it
    stops, and the seeded restarts from perturbed starts."""

    max_iterations: int = 2000
    f_tolerance: float = 1e-8
    restarts: int = 5
    seed: int = 0


@dataclass
class NelderMeadResult:
    x: tuple[float, ...]
    f: float
    iterations: int
    evaluations: int
    converged: bool


def _nelder_mead_single(objective, x0, max_iterations,
                        f_tolerance) -> NelderMeadResult:
    """One simplex run with the standard coefficients."""
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    n = len(x0)
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return objective(x)

    simplex = [list(x0)]
    for i in range(n):
        step = INIT_STEP_FRACTION * abs(x0[i])
        if step == 0.0:
            step = ZERO_COORD_STEP
        vertex = list(x0)
        vertex[i] += step
        simplex.append(vertex)
    values = [f(v) for v in simplex]

    iterations = 0
    converged = False
    while iterations < max_iterations:
        order = sorted(range(n + 1), key=lambda i: values[i])
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] <= f_tolerance:
            converged = True
            break
        iterations += 1
        centroid = [
            sum(simplex[i][j] for i in range(n)) / n for j in range(n)
        ]
        worst = simplex[-1]
        reflected = [
            centroid[j] + alpha * (centroid[j] - worst[j]) for j in range(n)
        ]
        fr = f(reflected)
        if fr < values[0]:
            expanded = [
                centroid[j] + gamma * (reflected[j] - centroid[j])
                for j in range(n)
            ]
            fe = f(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            contracted = [
                centroid[j] + rho * (worst[j] - centroid[j]) for j in range(n)
            ]
            fc = f(contracted)
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:
                best = simplex[0]
                for i in range(1, n + 1):
                    simplex[i] = [
                        best[j] + sigma * (simplex[i][j] - best[j])
                        for j in range(n)
                    ]
                    values[i] = f(simplex[i])
    i_best = min(range(n + 1), key=lambda i: values[i])
    return NelderMeadResult(tuple(simplex[i_best]), values[i_best],
                            iterations, evals, converged)


def nelder_mead(objective, x0, opts: NelderMeadOptions = NelderMeadOptions()
                ) -> NelderMeadResult:
    """Best of ``opts.restarts`` simplex runs; deterministic in the seed.

    Restart k > 0 perturbs the start by Gaussian noise at 10% of each
    coordinate's scale.  Ties keep the first-found optimum.  When the
    iteration budget runs out the best-so-far comes back flagged
    ``converged=False``.
    """
    x0 = [float(v) for v in x0]
    f0 = objective(x0)
    if not np.isfinite(f0):
        raise ValueError("objective is not finite at the start point")
    rng = random.Random(opts.seed)
    best: NelderMeadResult | None = None
    total_iter = 0
    total_eval = 1
    for attempt in range(opts.restarts):
        if attempt == 0:
            start = list(x0)
        else:
            start = [
                v + rng.gauss(0.0, RESTART_NOISE_FRACTION *
                              (abs(v) if v != 0.0 else ZERO_COORD_STEP * 10))
                for v in x0
            ]
        run = _nelder_mead_single(objective, start, opts.max_iterations,
                                  opts.f_tolerance)
        total_iter += run.iterations
        total_eval += run.evaluations
        if best is None or run.f < best.f:
            best = run
    assert best is not None
    return NelderMeadResult(best.x, best.f, total_iter, total_eval,
                            best.converged)


# The library's former cohomology routines, kept as written: a cover
# nerve over every index set and a poset order complex assembled by
# separate loops, and a Leray check that rebuilds each intersection as a
# sheaf of its own and computes its table.

def full_cover(t: Topology) -> Cover:
    """Every nonempty open, the canonical cover of the whole topology."""
    return Cover(tuple(o for o in t.opens if o.mask))


def _intersection_open(sh: Sheaf, cover: Cover, idx: tuple[int, ...]):
    mask = cover.sets[idx[0]].mask
    for i in idx[1:]:
        mask &= cover.sets[i].mask
    if mask == 0:
        return None
    u = sh.topology.find(mask)
    if u is None:
        names = ", ".join(str(cover.sets[i]) for i in idx)
        raise IntersectionNotOpen(
            f"intersection of {names} is not an open set"
        )
    return u


def reference_build_complex(sh: Sheaf, cover: Cover,
                            max_degree: int) -> CochainComplex:
    """Cochain spaces over (k+1)-fold cover intersections and the signed
    block coboundary matrices between them."""
    sh.require_linear("build_complex")
    n = len(cover.sets)
    degrees = []
    for k in range(max_degree + 2):
        layer = []
        for idx in itertools.combinations(range(n), k + 1):
            u = _intersection_open(sh, cover, idx)
            if u is None:
                continue
            layer.append((idx, u.id, sh.dim(u.id)))
        degrees.append(layer)

    offsets = []
    for layer in degrees:
        offs = {}
        pos = 0
        for idx, oid, d in layer:
            offs[idx] = (pos, oid, d)
            pos += d
        offsets.append((offs, pos))

    coboundaries = []
    for k in range(max_degree + 1):
        src_offs, src_dim = offsets[k]
        dst_offs, dst_dim = offsets[k + 1]
        d = np.zeros((dst_dim, src_dim))
        for idx, (dst_pos, dst_oid, dst_d) in dst_offs.items():
            for j in range(len(idx)):
                sub = idx[:j] + idx[j + 1:]
                if sub not in src_offs:
                    continue
                src_pos, src_oid, src_d = src_offs[sub]
                block = sh.restriction_matrix(src_oid, dst_oid)
                sign = -1.0 if j % 2 else 1.0
                d[dst_pos:dst_pos + dst_d, src_pos:src_pos + src_d] = \
                    sign * block
        coboundaries.append(d)
    return CochainComplex(degrees[:max_degree + 2], coboundaries)


def global_sections_via_h0(sh: Sheaf) -> np.ndarray:
    """Basis of the space of global sections as kernel of d^0 over the
    full-topology cover; columns are cochain coordinate vectors."""
    sh.require_linear("global_sections_via_h0")
    cx = reference_build_complex(sh, full_cover(sh.topology), 0)
    return nullspace(cx.coboundaries[0])


def reference_minimal_open_poset(sh: Sheaf):
    """Distinct minimal open neighborhoods of the entities, the
    specialization poset of the finite space."""
    t = sh.topology
    nodes = []
    seen = set()
    for i in range(len(t.universe)):
        bit = 1 << i
        mask = None
        for o in t.opens:
            if o.mask & bit:
                mask = o.mask if mask is None else mask & o.mask
        if mask is None:
            continue
        u = t.find(mask)
        if u is None:
            raise IntersectionNotOpen(
                "minimal neighborhoods must be open; the topology is not "
                "intersection-closed"
            )
        if u.id not in seen:
            seen.add(u.id)
            nodes.append(u.id)
    nodes.sort(key=lambda oid: (-t.opens[oid].size, oid))
    return nodes


def reference_topology_betti(sh: Sheaf, max_degree: int) -> BettiTable:
    """Betti numbers of the whole finite space.

    Computed as derived limits of the stalk diagram over the
    specialization poset (chains of strictly nested minimal open
    neighborhoods), which agrees with cover-level tables exactly when a
    cover satisfies the acyclicity hypothesis of the nerve theorem.
    """
    sh.require_linear("topology_betti")
    t = sh.topology
    nodes = reference_minimal_open_poset(sh)
    below = {
        n: [m for m in nodes
            if m != n and t.opens[m].mask & t.opens[n].mask == t.opens[m].mask]
        for n in nodes
    }
    chains: list[list[tuple[int, ...]]] = [[(n,) for n in nodes]]
    for _ in range(max_degree + 1):
        layer = []
        for ch in chains[-1]:
            for m in below[ch[-1]]:
                layer.append(ch + (m,))
        chains.append(layer)

    def layout(layer):
        offs = {}
        pos = 0
        for ch in layer:
            d = sh.dim(ch[-1])
            offs[ch] = (pos, d)
            pos += d
        return offs, pos

    layouts = [layout(layer) for layer in chains]
    dims = [total for _, total in layouts[:max_degree + 1]]
    coboundaries = []
    for n in range(max_degree + 1):
        src_offs, src_dim = layouts[n]
        dst_offs, dst_dim = layouts[n + 1]
        d = np.zeros((dst_dim, src_dim))
        for ch, (pos, dim) in dst_offs.items():
            for i in range(len(ch) - 1):
                sub = ch[:i] + ch[i + 1:]
                spos, sdim = src_offs[sub]
                sign = -1.0 if i % 2 else 1.0
                d[pos:pos + dim, spos:spos + sdim] += sign * np.eye(dim)
            sub = ch[:-1]
            spos, sdim = src_offs[sub]
            block = sh.restriction_matrix(ch[-2], ch[-1])
            sign = -1.0 if (len(ch) - 1) % 2 else 1.0
            d[pos:pos + dim, spos:spos + sdim] += sign * block
        coboundaries.append(d)
    return _betti_table(dims, coboundaries)


def restrict_sheaf(sh: Sheaf, top_mask: int) -> Sheaf:
    """The sheaf induced on the subtopology of opens inside ``top_mask``.

    The subtopology lives on a universe containing only the entities of
    ``top_mask``, so its whole space is the restricted set itself.
    """
    t = sh.topology
    sub_universe = EntityUniverse(t.universe.names_of(top_mask))

    def translate(mask: int) -> int:
        return sub_universe.mask_of(t.universe.names_of(mask))

    sub = Topology(sub_universe, [translate(b.mask) for b in t.basis
                                  if b.mask & top_mask == b.mask])
    stalks = {sub.find(translate(t.opens[n].mask)): sh.stalks[n]
              for n in sh.native_ids()
              if t.opens[n].mask & top_mask == t.opens[n].mask}
    edges = []
    for (src, dst), rm in sh.edges.items():
        sm, dm = t.opens[src].mask, t.opens[dst].mask
        if sm & top_mask == sm and dm & top_mask == dm:
            edges.append(RestrictionMap(
                sub.find(translate(sm)), sub.find(translate(dm)), rm.body
            ))
    return Sheaf(sub, stalks, edges)


def reference_sub_topology(t: Topology, top_mask: int) -> Topology:
    """The topology of the opens inside ``top_mask``, on a universe of
    its entities: every such open, translated, generates it."""
    sub_universe = EntityUniverse(t.universe.names_of(top_mask))
    return Topology(sub_universe, [
        sub_universe.mask_of(o.members) for o in t.opens
        if o.mask & top_mask == o.mask
    ])


def reference_leray_check(sh: Sheaf, cover: Cover,
                           max_degree: int) -> LerayReport:
    """Check the acyclicity hypothesis on every nonempty intersection of
    cover elements; when it holds, certify that cover-level and
    topology-level Betti tables agree."""
    sh.require_linear("leray_check")
    report = LerayReport()
    n = len(cover.sets)
    seen = set()
    all_ok = True
    for r in range(1, n + 1):
        for idx in itertools.combinations(range(n), r):
            u = _intersection_open(sh, cover, idx)
            if u is None or u.id in seen:
                continue
            seen.add(u.id)
            sub_sheaf = restrict_sheaf(sh, u.mask)
            table = reference_topology_betti(sub_sheaf, max_degree)
            ok = all(b == 0 for b in table.betti[1:])
            key = str(u)
            report.acyclic[key] = ok
            if not ok:
                all_ok = False
                bad = [k for k in range(1, len(table.betti))
                       if table.betti[k] != 0]
                report.witnesses.append(
                    f"{key} has nonzero betti at degrees {bad}: "
                    f"{table.betti}"
                )
    report.verdict = all_ok
    if all_ok:
        cx = reference_build_complex(sh, cover, max_degree)
        report.cover_betti = _betti_table(
            [cx.dim(k) for k in range(max_degree + 1)], cx.coboundaries)
        report.topology_betti = reference_topology_betti(sh, max_degree)
        report.tables_equal = (
            report.cover_betti.betti == report.topology_betti.betti
        )
    return report


def reference_lift_sheaf(sh: Sheaf, grids: dict) -> Sheaf:
    """The library's former ``lift_sheaf``: the stalk checks, then one
    ``stochastic_lift`` per edge, in ``sh.edges`` order, each sampling
    the whole source grid."""
    t = sh.topology
    stalks = {}
    for oid in sh.native_ids():
        u, grid = t.opens[oid], grids.get(oid)
        if grid is None:
            raise UnmappedBin(f"no bin grid given for open {u}")
        if len(grid.shape) != sh.stalk(oid).dim:
            raise UnmappedBin(
                f"grid for {u} has {len(grid.shape)} axes, stalk has "
                f"dimension {sh.stalk(oid).dim}"
            )
        if grid.size > MAX_STALK_BINS:
            raise UnmappedBin(
                f"lift of {u} needs {grid.size} bins "
                f"(cap {MAX_STALK_BINS}); use fewer bins per axis"
            )
        stalks[oid] = sp.simplex(grid.size)
    edges = []
    for (src, dst), rm in sh.edges.items():
        matrix = stochastic_lift(
            rm.body, grids[src], grids[dst], LIFT_SUBDIVISIONS
        )
        edges.append(RestrictionMap(t.opens[src], t.opens[dst],
                                    Linear(matrix)))
    return Sheaf(t, stalks, edges)
