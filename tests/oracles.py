"""Independent reference implementations used to freeze expected values.

Everything here deliberately avoids the library's own code paths:
closures by fixpoint iteration, distances by alternative formulas,
agreement spaces by stacked-constraint nullspaces.
"""

import itertools
import math

import numpy as np


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
