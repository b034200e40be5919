"""Cech cochain complexes, Betti numbers, Leray cover verification,
and stochastic lifting of nonlinear maps into column-stochastic ones."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import spaces as sp
from ._linalg import numeric_rank, nullspace
from .errors import IntersectionNotOpen, UnmappedBin
from .sheaf import Linear, RestrictionMap, Sheaf, batch_call
from .topology import EntityUniverse, OpenSet, Topology

DD_TOL = 1e-10
# lift_sheaf: sample points per domain cell and axis, and the most bins
# one lifted stalk may have
LIFT_SUBDIVISIONS = 3
MAX_STALK_BINS = 20000
# stochastic_lift maps the samples of whole domain cells, about this
# many points at a time; the size keeps the peak memory of a lift near
# that of mapping one cell at a time
LIFT_CHUNK_POINTS = 4096


@dataclass(frozen=True)
class Cover:
    """An ordered family of opens from one topology whose union is the
    relevant total space."""

    sets: tuple[OpenSet, ...]

    def __post_init__(self):
        if not self.sets:
            raise ValueError("cover must be nonempty")


def full_cover(t: Topology) -> Cover:
    """Every nonempty open, the canonical cover of the whole topology."""
    return Cover(tuple(o for o in t.opens if o.mask))


@dataclass
class CochainComplex:
    degrees: list[list[tuple[tuple[int, ...], int, int]]]
    # per degree: (index tuple, open id of the intersection, stalk dim)
    coboundaries: list[np.ndarray]   # d^k : C^k -> C^(k+1)

    def dim(self, k: int) -> int:
        if k < 0 or k >= len(self.degrees):
            return 0
        return sum(d for _, _, d in self.degrees[k])


@dataclass
class BettiTable:
    dims: list[int]
    ranks: list[int]
    betti: list[int]
    dd_residual: float   # max |d^(k+1) d^k| over the coboundaries used

    def __str__(self):
        rows = ["k   dim C^k   rank d^k   betti_k"]
        for k, (c, r, b) in enumerate(zip(self.dims, self.ranks, self.betti)):
            rows.append(f"{k:<4}{c:<10}{r:<11}{b}")
        return "\n".join(rows)

    def as_dict(self):
        return {"dims": self.dims, "ranks": self.ranks, "betti": self.betti,
                "dd_residual": self.dd_residual}


def _betti_table(dims: list[int], coboundaries: list) -> BettiTable:
    """Ranks and Betti numbers of the coboundaries d^0..d^n, and their
    largest |d^(k+1) d^k| entry (0.0 when no composition exists)."""
    ranks = [numeric_rank(d) for d in coboundaries]
    out = [c - r - prev for c, r, prev in zip(dims, ranks, [0] + ranks)]
    dd = (after @ before
          for before, after in zip(coboundaries, coboundaries[1:]))
    residual = max((float(np.max(np.abs(m))) for m in dd if m.size),
                   default=0.0)
    return BettiTable(dims, ranks, out, residual)


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


def _complex(sh: Sheaf, layers: list, open_of) -> CochainComplex:
    """The cochain complex of simplices given as tuples, one layer per
    degree, each simplex carrying the stalk over ``open_of(simplex)``.

    d^k sends the face without entry j to the simplex through the
    restriction matrix from the face's open to the simplex's, with sign
    (-1)^j; every face of a simplex in layer k+1 must be in layer k.
    """
    degrees = [[(s, open_of(s), sh.dim(open_of(s))) for s in layer]
               for layer in layers]
    offsets = []
    for layer in degrees:
        offs = {}
        pos = 0
        for s, oid, d in layer:
            offs[s] = (pos, oid, d)
            pos += d
        offsets.append((offs, pos))
    coboundaries = []
    for (src_offs, src_dim), (dst_offs, dst_dim) in zip(offsets,
                                                          offsets[1:]):
        d = np.zeros((dst_dim, src_dim))
        for s, (dst_pos, dst_oid, dst_d) in dst_offs.items():
            for j in range(len(s)):
                src_pos, src_oid, src_d = src_offs[s[:j] + s[j + 1:]]
                block = sh.restriction_matrix(src_oid, dst_oid)
                sign = -1.0 if j % 2 else 1.0
                d[dst_pos:dst_pos + dst_d, src_pos:src_pos + src_d] = \
                    sign * block
        coboundaries.append(d)
    return CochainComplex(degrees, coboundaries)


def build_complex(sh: Sheaf, cover: Cover, max_degree: int) -> CochainComplex:
    """Cochain spaces over (k+1)-fold cover intersections and the signed
    block coboundary matrices between them."""
    sh.require_linear("build_complex")
    opens = {}
    layers = []
    for k in range(max_degree + 2):
        layer = []
        for idx in itertools.combinations(range(len(cover.sets)), k + 1):
            u = _intersection_open(sh, cover, idx)
            if u is not None:
                opens[idx] = u.id
                layer.append(idx)
        layers.append(layer)
    return _complex(sh, layers, opens.__getitem__)


def betti(sh: Sheaf, cover: Cover, max_degree: int) -> BettiTable:
    """Betti numbers dim ker d^k - rank d^(k-1) up to max_degree, and
    the d.d residual of the complex that gave them."""
    cx = build_complex(sh, cover, max_degree)
    dims = [cx.dim(k) for k in range(max_degree + 1)]
    return _betti_table(dims, cx.coboundaries)


def global_sections_via_h0(sh: Sheaf) -> np.ndarray:
    """Basis of the space of global sections as kernel of d^0 over the
    full-topology cover; columns are cochain coordinate vectors."""
    sh.require_linear("global_sections_via_h0")
    cx = build_complex(sh, full_cover(sh.topology), 0)
    return nullspace(cx.coboundaries[0])


def _minimal_open_poset(sh: Sheaf) -> list[int]:
    """Distinct minimal open neighborhoods of the entities, largest
    first: the specialization poset of the finite space.

    The minimal neighborhood of an entity is the intersection of the
    basis opens that contain it (the whole space when none does), so
    the union lattice is never walked.
    """
    t = sh.topology
    nodes = []
    for i in range(len(t.universe)):
        mask = t.full.mask
        for b in t.basis:
            if b.mask >> i & 1:
                mask &= b.mask
        u = t.find(mask)
        if u is None:
            raise IntersectionNotOpen(
                "minimal neighborhoods must be open; the topology is not "
                "intersection-closed"
            )
        if u.id not in nodes:
            nodes.append(u.id)
    nodes.sort(key=lambda oid: (-t.opens[oid].size, oid))
    return nodes


def _poset_betti(sh: Sheaf, nodes: list[int], max_degree: int) -> BettiTable:
    """Betti numbers of the stalk diagram over ``nodes``, a down-closed
    part of the specialization poset in ``_minimal_open_poset`` order.

    Chains of strictly nested nodes run from large to small and carry
    the stalk of their smallest node, so every face but the last maps
    in by ``restriction_matrix(n, n)``, which is exactly the identity.
    """
    t = sh.topology
    below = {
        n: [m for m in nodes
            if m != n and t.opens[m].mask & t.opens[n].mask == t.opens[m].mask]
        for n in nodes
    }
    chains = [[(n,) for n in nodes]]
    for _ in range(max_degree + 1):
        chains.append([ch + (m,) for ch in chains[-1] for m in below[ch[-1]]])
    cx = _complex(sh, chains, lambda ch: ch[-1])
    dims = [cx.dim(k) for k in range(max_degree + 1)]
    return _betti_table(dims, cx.coboundaries)


def topology_betti(sh: Sheaf, max_degree: int) -> BettiTable:
    """Betti numbers of the whole finite space.

    Computed as derived limits of the stalk diagram over the
    specialization poset (chains of strictly nested minimal open
    neighborhoods), which agrees with cover-level tables exactly when a
    cover satisfies the acyclicity hypothesis of the nerve theorem.
    """
    sh.require_linear("topology_betti")
    return _poset_betti(sh, _minimal_open_poset(sh), max_degree)


@dataclass
class LerayReport:
    acyclic: dict = field(default_factory=dict)   # intersection key -> bool
    verdict: bool = False
    cover_betti: BettiTable | None = None
    topology_betti: BettiTable | None = None
    tables_equal: bool | None = None
    witnesses: list = field(default_factory=list)

    def __str__(self):
        lines = []
        for key, ok in self.acyclic.items():
            lines.append(f"  {key}: {'acyclic' if ok else 'NOT acyclic'}")
        lines.append(f"verdict: {'pass' if self.verdict else 'fail'}")
        if self.verdict and self.cover_betti and self.topology_betti:
            lines.append(
                f"cover betti {self.cover_betti.betti} == "
                f"topology betti {self.topology_betti.betti}: "
                f"{self.tables_equal}"
            )
        for w in self.witnesses[:6]:
            lines.append(f"  witness: {w}")
        return "\n".join(lines)


def restrict_sheaf(sh: Sheaf, top_mask: int) -> Sheaf:
    """The sheaf induced on the subtopology of opens inside ``top_mask``.

    The subtopology lives on a universe containing only the entities of
    ``top_mask``, so its whole space is the restricted set itself.
    """
    t = sh.topology
    sub_universe = EntityUniverse(t.universe.names_of(top_mask))

    def translate(mask: int) -> int:
        return sub_universe.mask_of(t.universe.names_of(mask))

    masks = [translate(o.mask) for o in t.opens
             if o.mask & top_mask == o.mask]
    basis_masks = [translate(b.mask) for b in t.basis
                   if b.mask & top_mask == b.mask]
    sub = Topology(sub_universe, masks, basis_masks)
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


def leray_check(sh: Sheaf, cover: Cover, max_degree: int) -> LerayReport:
    """Check the acyclicity hypothesis on every nonempty intersection of
    cover elements; when it holds, certify that cover-level and
    topology-level Betti tables agree.

    The sheaf on an open U is the stalk diagram over the nodes of the
    specialization poset inside U, with the same stalks and maps, so
    each intersection is checked on a part of this sheaf's own poset.
    """
    sh.require_linear("leray_check")
    t = sh.topology
    nodes = _minimal_open_poset(sh)
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
            inside = [m for m in nodes
                      if t.opens[m].mask & u.mask == t.opens[m].mask]
            table = _poset_betti(sh, inside, max_degree)
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
        report.cover_betti = betti(sh, cover, max_degree)
        report.topology_betti = _poset_betti(sh, nodes, max_degree)
        report.tables_equal = (
            report.cover_betti.betti == report.topology_betti.betti
        )
    return report


# ---------------------------------------------------------------------------
# stochastic lifts

@dataclass(frozen=True)
class BinGrid:
    """Axis-aligned binning of a box in R^d."""

    edges: tuple[tuple[float, ...], ...]   # per axis, length bins+1

    def __post_init__(self):
        for edge in self.edges:
            if len(edge) < 2 or not all(map(math.isfinite, edge)) or \
                    any(a >= b for a, b in zip(edge, edge[1:])):
                raise ValueError(f"bin edges {tuple(edge)} must be at least "
                                 f"two finite, strictly increasing numbers")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(e) - 1 for e in self.edges)

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def cell_samples(self, subdivisions: int, per_chunk: int):
        """The midpoints of a regular subdivision of every cell, cells in
        row-major order and ``per_chunk`` whole cells at a time: yields
        (cells, points), where ``cells`` is a range of flat cell indices
        and ``points`` holds their samples as rows, cell by cell, and
        within a cell in row-major order of the subdivision."""
        d, shape = len(self.edges), self.shape
        mids = []
        for edge in self.edges:
            per_bin = []
            for lo, hi in zip(edge, edge[1:]):
                step = (hi - lo) / subdivisions
                per_bin.append([lo + (j + 0.5) * step
                                for j in range(subdivisions)])
            mids.append(np.array(per_bin))
        for start in range(0, self.size, per_chunk):
            cells = range(start, min(start + per_chunk, self.size))
            cell = np.arange(cells.start, cells.stop)
            out = np.empty((len(cells),) + (subdivisions,) * d + (d,))
            for ax in range(d):
                view = [len(cells)] + [1] * d
                view[1 + ax] = subdivisions
                c = cell // math.prod(shape[ax + 1:]) % shape[ax]
                out[..., ax] = mids[ax][c].reshape(view)
            yield cells, out.reshape(-1, d)

    def cells(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bin the rows of an (n, d) array: per-axis cell indices, shape
        (n, d), and a mask of the rows that lie in the grid.  The
        rightmost bin is closed on both sides; a NaN lies nowhere."""
        if points.ndim != 2 or points.shape[1] != len(self.edges):
            raise ValueError(f"points of shape {points.shape} do not fit "
                             f"a {len(self.edges)}-d grid")
        idx = np.empty(points.shape, dtype=np.intp)
        inside = np.ones(len(points), dtype=bool)
        for ax, edge in enumerate(self.edges):
            col = points[:, ax]
            inside &= (col >= edge[0]) & (col <= edge[-1])
            idx[:, ax] = np.clip(np.searchsorted(edge, col, side="right") - 1,
                                 0, len(edge) - 2)
        return idx, inside

    def locate(self, point) -> tuple[int, ...] | None:
        """Cell index of one point; None outside the grid or for NaN."""
        idx, inside = self.cells(np.asarray([point], dtype=float))
        return tuple(int(c) for c in idx[0]) if inside[0] else None


def uniform_grid(lows, highs, bins: int) -> BinGrid:
    if bins < 1:
        raise ValueError(f"a uniform grid needs at least 1 bin, got {bins}")
    if len(lows) != len(highs):
        raise ValueError(f"{len(lows)} lows but {len(highs)} highs")
    edges = []
    for lo, hi in zip(lows, highs):
        step = (hi - lo) / bins
        edges.append(tuple(lo + i * step for i in range(bins + 1)))
    return BinGrid(tuple(edges))


def _bad_image(f, points: np.ndarray, cells: range, grid_in: BinGrid,
               grid_out: BinGrid) -> UnmappedBin:
    """The error naming the first of ``points``, the samples of
    ``cells``, whose image by the point call of ``f`` has the wrong
    number of coordinates, is not finite or lies outside ``grid_out``."""
    dim = len(grid_out.edges)
    per = len(points) // len(cells)
    for k, point in enumerate(map(tuple, points.tolist())):
        image = tuple(f(point))
        if len(image) != dim:
            why = f"has {len(image)} coordinates, the codomain grid {dim}"
        elif not all(map(math.isfinite, image)):
            why = "is not finite"
        elif grid_out.locate(image) is None:
            why = "lies outside the codomain grid"
        else:
            continue
        cell = np.unravel_index(cells[k // per], grid_in.shape)
        return UnmappedBin(f"image {image} of sample in domain bin "
                           f"{tuple(int(c) for c in cell)} {why}")
    first, last = (tuple(int(c) for c in np.unravel_index(i, grid_in.shape))
                   for i in (cells[0], cells[-1]))
    return UnmappedBin(f"the batch call fails on domain bins {first} to "
                       f"{last}, the point calls do not")


def stochastic_lift(f, bins_domain, bins_codomain,
                    subdivisions: int = 3) -> np.ndarray:
    """Column-stochastic matrix of a map between binned spaces.

    ``bins_domain``/``bins_codomain`` are either integers (f maps bin
    indices to bin indices) or BinGrid instances (f maps points to
    points; each domain cell is subdivided and the image mass
    histogrammed).  Column i holds the mass fractions of domain bin i
    landing in each codomain bin.  The samples of whole domain cells
    go through f together, by ``sheaf.batch_call``; when an image is
    bad, the point calls of f name the first bad sample.
    """
    if isinstance(bins_domain, int) and isinstance(bins_codomain, int):
        m = np.zeros((bins_codomain, bins_domain))
        for i in range(bins_domain):
            j = f(i)
            if not isinstance(j, (int, np.integer)) or not \
                    0 <= j < bins_codomain:
                raise UnmappedBin(f"bin {i} maps outside the codomain: {j!r}")
            m[j, i] = 1.0
        return m
    if not isinstance(bins_domain, BinGrid) or \
            not isinstance(bins_codomain, BinGrid):
        raise TypeError("bins must both be ints or both BinGrid")
    if subdivisions < 1:
        raise ValueError(f"subdivisions must be >= 1, got {subdivisions}")
    # the samples of whole domain cells, about LIFT_CHUNK_POINTS at a
    # time, go through f's batch call and are binned together
    n_cod = bins_codomain.size
    per = subdivisions ** len(bins_domain.edges)
    m = np.zeros((n_cod, bins_domain.size))
    for cells, points in bins_domain.cell_samples(
            subdivisions, max(1, LIFT_CHUNK_POINTS // per)):
        try:
            images = batch_call(f, points)
        except ValueError:  # images of unequal lengths
            images = None
        if images is None or images.shape != \
                (len(points), len(bins_codomain.edges)):
            raise _bad_image(f, points, cells, bins_domain, bins_codomain)
        idx, inside = bins_codomain.cells(images)
        if not inside.all():
            raise _bad_image(f, points, cells, bins_domain, bins_codomain)
        flat = np.zeros(len(points), dtype=np.intp)
        for ax, s in enumerate(bins_codomain.shape):
            flat = flat * s + idx[:, ax]
        dom = np.repeat(np.arange(len(cells)), per)
        counts = np.bincount(flat * len(cells) + dom,
                             minlength=n_cod * len(cells))
        m[:, cells.start:cells.stop] = counts.reshape(n_cod, len(cells))
    return m / per


def lift_sheaf(sh: Sheaf, grids: dict) -> Sheaf:
    """Linearize a sheaf by replacing each native stalk with probability
    distributions over a grid and each restriction with its stochastic
    lift.

    ``grids`` maps the ids in ``sh.native_ids()`` to BinGrid instances
    matching the stalk dimensions.
    """
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
