"""Independent reference implementations used to freeze expected values.

Everything here deliberately avoids the library's own code paths:
closures by fixpoint iteration, distances by alternative formulas,
agreement spaces by stacked-constraint nullspaces, functoriality by
applying every restriction-edge path.  The exceptions are the library's
former routines, kept as references for the ones that replaced them:
``all_pairs_gluing``, the gluing check over every pair of opens, for
the native-union check; ``all_pairs_radius``, the consistency-radius
loop over every comparable pair, for the defined-pair loop; and the
``reference_*`` cohomology routines, for the one cochain-complex
routine and the Leray check on sub-posets.
"""

import itertools
import math
import random

import numpy as np

from sheaffuse import spaces as sp
from sheaffuse._linalg import numeric_rank
from sheaffuse.cohomology import (
    BettiTable,
    CochainComplex,
    Cover,
    LerayReport,
    _betti_table,
    _intersection_open,
    restrict_sheaf,
)
from sheaffuse.consistency import EdgeError
from sheaffuse.errors import IntersectionNotOpen
from sheaffuse.sheaf import GluingReport, Sheaf
from sheaffuse.topology import comparable_pairs


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
        restricted = sh.restrict_coords(large.id, small.id, pu.coords)
        err = sp.coord_distance(sh.stalk(small.id), pv.coords, restricted)
        edges.append(EdgeError(small, large, err))
    edges.sort(key=lambda e: (-e.error, e.larger.id, e.smaller.id))
    return edges


# The library's former cohomology routines, kept as written: a cover
# nerve and a poset order complex assembled by separate loops, and a
# Leray check that rebuilds each intersection as a sheaf of its own.

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
