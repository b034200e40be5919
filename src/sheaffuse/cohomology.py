"""Cech cochain complexes, Betti numbers, Leray cover verification,
and stochastic lifting of nonlinear maps into column-stochastic ones."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import spaces as sp
from ._linalg import numeric_rank
from .errors import IntersectionNotOpen, UnmappedBin
from .sheaf import (
    FUNCTORIALITY_TOL,
    Builtin,
    Identity,
    Linear,
    Projection,
    RestrictionMap,
    Sheaf,
    batch_call,
)
from .topology import OpenSet, Topology

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


def _nerve(sh: Sheaf, cover: Cover, sizes: int) -> list[list]:
    """The nonempty intersections of 1 to ``sizes`` cover sets, one
    layer per size: (index tuple, open) pairs in the order of
    ``itertools.combinations``.  Only a nonempty intersection is
    extended, by each later cover set, so the walk never visits an
    index set whose prefix is already empty.  Raises IntersectionNotOpen
    on the first intersection, in that order, that is not open."""
    t = sh.topology
    masks = [s.mask for s in cover.sets]
    layers = []
    prev = [((), -1)]   # -1 has every bit set
    for _ in range(sizes):
        layer = []
        for idx, mask in prev:
            for j in range(idx[-1] + 1 if idx else 0, len(masks)):
                meet = mask & masks[j]
                if not meet:
                    continue
                u = t.find(meet)
                if u is None:
                    names = ", ".join(str(cover.sets[i]) for i in idx + (j,))
                    raise IntersectionNotOpen(
                        f"intersection of {names} is not an open set"
                    )
                layer.append((idx + (j,), u))
        layers.append(layer)
        prev = [(idx, u.mask) for idx, u in layer]
    return layers


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


def _check_degree(max_degree: int):
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")


def _nerve_complex(sh: Sheaf, layers: list) -> CochainComplex:
    """The cochain complex over the intersections of ``_nerve`` layers."""
    opens = {idx: u.id for layer in layers for idx, u in layer}
    return _complex(sh, [[idx for idx, _ in layer] for layer in layers],
                    opens.__getitem__)


def build_complex(sh: Sheaf, cover: Cover, max_degree: int) -> CochainComplex:
    """Cochain spaces over (k+1)-fold cover intersections and the signed
    block coboundary matrices between them.  Raises ValueError when
    ``max_degree`` is negative."""
    _check_degree(max_degree)
    sh.require_linear("build_complex")
    return _nerve_complex(sh, _nerve(sh, cover, max_degree + 2))


def _table(cx: CochainComplex) -> BettiTable:
    """The Betti table of ``cx`` in every degree its coboundaries leave."""
    return _betti_table([cx.dim(k) for k in range(len(cx.coboundaries))],
                        cx.coboundaries)


def betti(sh: Sheaf, cover: Cover, max_degree: int) -> BettiTable:
    """Betti numbers dim ker d^k - rank d^(k-1) up to max_degree, and
    the d.d residual of the complex that gave them."""
    return _table(build_complex(sh, cover, max_degree))


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
        oid = t.find(mask).id
        if oid not in nodes:
            nodes.append(oid)
    nodes.sort(key=lambda oid: (-t.opens[oid].size, oid))
    return nodes


def _poset_betti(sh: Sheaf, nodes: list[int], max_degree: int) -> BettiTable:
    """Betti numbers of the stalk diagram over ``nodes``, a down-closed
    part of the specialization poset in ``_minimal_open_poset`` order.

    Chains of strictly nested nodes run from large to small and carry
    the stalk of their smallest node, so every face but the last maps
    in by ``restriction_matrix(n, n)``, which is exactly the identity.
    """
    _check_degree(max_degree)
    below = _below(sh.topology, nodes)
    chains = [[(n,) for n in nodes]]
    for _ in range(max_degree + 1):
        chains.append([ch + (m,) for ch in chains[-1] for m in below[ch[-1]]])
    return _table(_complex(sh, chains, lambda ch: ch[-1]))


def _inside(t: Topology, nodes: list[int], mask: int) -> list[int]:
    """The nodes inside the set ``mask``, in the order of ``nodes``."""
    return [m for m in nodes if t.opens[m].mask & mask == t.opens[m].mask]


def _below(t: Topology, nodes: list[int]) -> dict[int, list[int]]:
    """The nodes strictly inside each node, in the order of ``nodes``."""
    return {n: [m for m in _inside(t, nodes, t.opens[n].mask) if m != n]
            for n in nodes}


def topology_betti(sh: Sheaf, max_degree: int, u: OpenSet) -> BettiTable:
    """Betti numbers of the open ``u`` (the whole finite space when it
    is ``sh.topology.full``).

    Computed as derived limits of the stalk diagram over the part of
    the specialization poset inside ``u`` (chains of strictly nested
    minimal open neighborhoods), which agrees with cover-level tables
    exactly when a cover satisfies the acyclicity hypothesis of the
    nerve theorem.  Every entity of ``u`` has its minimal neighborhood
    inside ``u``, so that part is the poset of the sheaf on ``u``, with
    the same stalks and maps, and no sub-sheaf is built.
    """
    sh.require_linear("topology_betti")
    return _poset_betti(sh, _inside(sh.topology, _minimal_open_poset(sh),
                                    u.mask), max_degree)


@dataclass
class LerayReport:
    acyclic: dict = field(default_factory=dict)   # intersection key -> bool
    verdict: bool = False
    cover_betti: BettiTable | None = None
    topology_betti: BettiTable | None = None
    tables_equal: bool | None = None
    witnesses: list = field(default_factory=list)
    # 2-chains a > b > c of opens whose composed restriction misses
    # FUNCTORIALITY_TOL, one per node found
    does_not_commute: list = field(default_factory=list)

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
        for a, b, c in self.does_not_commute:
            lines.append(f"  does not commute: {a} > {b} > {c}")
        return "\n".join(lines)


def _commutes_below(sh: Sheaf, a: int, below: dict) -> tuple | None:
    """The first 2-chain a > b > c of nodes from ``a`` that does not
    commute, as node ids: the restriction matrix from b to c after the
    one from a to b misses the one from a to c by more than
    FUNCTORIALITY_TOL.  None when every such chain commutes."""
    r = sh.restriction_matrix
    for b in below[a]:
        for c in below[b]:
            if np.max(np.abs(r(b, c) @ r(a, b) - r(a, c)), initial=0.0) \
                    > FUNCTORIALITY_TOL:
                return a, b, c
    return None


def leray_check(sh: Sheaf, cover: Cover, max_degree: int) -> LerayReport:
    """Check the acyclicity hypothesis on every nonempty intersection of
    cover elements; when it holds, certify that cover-level and
    topology-level Betti tables agree.  Raises ValueError when
    ``max_degree`` is negative.

    One nerve walk (``_nerve``) gives the intersections: it visits only
    the nonempty ones, and its layers up to ``max_degree + 2`` sets are
    also the cover complex.  The sheaf on an open
    U is the stalk diagram over the nodes of the specialization poset
    inside U, with the same stalks and maps, so each intersection is
    checked on a part of this sheaf's own poset.

    An intersection that is itself a node is the greatest node of its
    part, a cone.  When every 2-chain of its nodes commutes
    (``_commutes_below``), prepending U to a chain is a contracting
    homotopy of the part's complex, so every Betti number above degree
    0 is 0 and the part's complex is not built.  Where a 2-chain does
    not commute, d.d is not 0 and the table, negative numbers included,
    is whatever the ranks say, so it is computed as for any
    intersection that is not a node.  ``LerayReport.does_not_commute``
    names, for each node checked, its first 2-chain that does not
    commute.  The nodes of a cone are checked up to the first with such
    a chain, and so are those of an intersection with a witness.
    """
    sh.require_linear("leray_check")
    _check_degree(max_degree)
    t = sh.topology
    nodes = _minimal_open_poset(sh)
    below = _below(t, nodes)
    chains = {}

    def commutes(a):
        if a not in chains:
            chains[a] = _commutes_below(sh, a, below)
        return chains[a] is None

    layers = _nerve(sh, cover, max(len(cover.sets), max_degree + 2))
    report = LerayReport()
    seen = set()
    for u in (u for layer in layers for _, u in layer):
        if u.id in seen:
            continue
        seen.add(u.id)
        inside = _inside(t, nodes, u.mask)
        if u.id in below and all(map(commutes, inside)):
            report.acyclic[str(u)] = True
            continue
        table = _poset_betti(sh, inside, max_degree)
        bad = [k for k in range(1, len(table.betti)) if table.betti[k] != 0]
        report.acyclic[str(u)] = not bad
        if bad:
            report.witnesses.append(f"{u} has nonzero betti at degrees "
                                    f"{bad}: {table.betti}")
            for m in inside:
                if not commutes(m):
                    break
    report.does_not_commute = [tuple(t.opens[n] for n in chain)
                               for chain in chains.values() if chain]
    report.verdict = not report.witnesses
    if report.verdict:
        report.cover_betti = _table(_nerve_complex(sh,
                                                   layers[:max_degree + 2]))
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

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(e) - 1 for e in self.edges)

    @cached_property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def cell_samples(self, subdivisions: int, per_chunk: int, axes=None):
        """The midpoints of a regular subdivision of every cell, cells in
        row-major order and ``per_chunk`` whole cells at a time: yields
        (cells, points), where ``cells`` is a range of flat cell indices
        and ``points`` holds their samples as rows, cell by cell, and
        within a cell in row-major order of the subdivision.  With
        ``axes``, distinct and increasing, the cells are those of the
        grid of those axes alone, and the points hold NaN on the other
        axes."""
        d = len(self.edges)
        axes = range(d) if axes is None else axes
        shape = [self.shape[ax] for ax in axes]
        size = math.prod(shape)
        mids = [_midpoints(edge, subdivisions) for edge in self.edges]
        for start in range(0, size, per_chunk):
            cells = range(start, min(start + per_chunk, size))
            cell = np.arange(cells.start, cells.stop)
            out = np.full((len(cells),) + (subdivisions,) * len(axes) + (d,),
                          np.nan)
            for pos, ax in enumerate(axes):
                view = [len(cells)] + [1] * len(axes)
                view[1 + pos] = subdivisions
                c = cell // math.prod(shape[pos + 1:]) % shape[pos]
                out[..., ax] = mids[ax][c].reshape(view)
            yield cells, out.reshape(-1, d)

    @cached_property
    def _inner(self) -> tuple[np.ndarray, ...]:
        """Each axis's interior edges, ``edge[1:-1]``, as an array."""
        return tuple(np.array(edge[1:-1], dtype=float) for edge in self.edges)

    def _axis_bins(self, points: np.ndarray):
        """Yield, axis by axis, the bin of each row of an (n, d) array
        and whether it lies in the axis's closed range.  The bin counts
        the interior edges at or below the value, which is right only
        for values in range."""
        for edge, inner, col in zip(self.edges, self._inner, points.T):
            yield (inner.searchsorted(col, side="right"),
                   (col >= edge[0]) & (col <= edge[-1]))

    def cells(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bin the rows of an (n, d) array: per-axis cell indices, shape
        (n, d), and a mask of the rows that lie in the grid.  The
        rightmost bin is closed on both sides; a NaN lies nowhere."""
        if points.ndim != 2 or points.shape[1] != len(self.edges):
            raise ValueError(f"points of shape {points.shape} do not fit "
                             f"a {len(self.edges)}-d grid")
        idx = np.empty(points.shape, dtype=np.intp)
        inside = np.ones(len(points), dtype=bool)
        for ax, (bins, within) in enumerate(self._axis_bins(points)):
            idx[:, ax] = bins
            inside &= within
        return idx, inside

    def locate(self, point) -> tuple[int, ...] | None:
        """Cell index of one point; None outside the grid or for NaN."""
        idx, inside = self.cells(np.asarray([point], dtype=float))
        return tuple(int(c) for c in idx[0]) if inside[0] else None


def _midpoints(edge, subdivisions: int) -> np.ndarray:
    """The midpoints of a regular subdivision of each bin of one axis's
    ``edge``, shape (bins, subdivisions)."""
    per_bin = []
    for lo, hi in zip(edge, edge[1:]):
        step = (hi - lo) / subdivisions
        per_bin.append([lo + (j + 0.5) * step for j in range(subdivisions)])
    return np.array(per_bin)


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


def _lift_chunk(f, cells: range, points: np.ndarray, grid_in: BinGrid,
                grid_out: BinGrid, counts: np.ndarray):
    """Map ``points``, the samples of the domain ``cells``, by the batch
    call of ``f`` and write how many land in each codomain bin into
    ``counts[:, cells]``; raises UnmappedBin, naming the first bad
    sample, when an image is bad."""
    try:
        images = batch_call(f, points)
    except ValueError:  # images of unequal lengths
        images = None
    if images is None or images.shape != (len(points), len(grid_out.edges)):
        raise _bad_image(f, points, cells, grid_in, grid_out)
    # the flat index codomain cell * len(cells) + domain cell, folded
    # axis by axis
    flat = np.zeros(len(points), dtype=np.intp)
    inside = np.ones(len(points), dtype=bool)
    for s, (bins, within) in zip(grid_out.shape, grid_out._axis_bins(images)):
        flat *= s
        flat += bins
        inside &= within
    if not inside.all():
        raise _bad_image(f, points, cells, grid_in, grid_out)
    flat *= len(cells)
    flat += np.repeat(np.arange(len(cells)), len(points) // len(cells))
    n_cod = grid_out.size
    counts[:, cells.start:cells.stop] = np.bincount(
        flat, minlength=n_cod * len(cells)
    ).reshape(n_cod, len(cells))


def _chunk_cells(grid: BinGrid, subdivisions: int) -> int:
    """Whole domain cells per chunk: about LIFT_CHUNK_POINTS samples."""
    return max(1, LIFT_CHUNK_POINTS // subdivisions ** len(grid.edges))


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
            if isinstance(j, bool) or not isinstance(
                    j, (int, np.integer)) or not 0 <= j < bins_codomain:
                raise UnmappedBin(f"bin {i} maps outside the codomain: {j!r}")
            m[j, i] = 1.0
        return m
    if not isinstance(bins_domain, BinGrid) or \
            not isinstance(bins_codomain, BinGrid):
        raise TypeError("bins must both be ints or both BinGrid")
    if isinstance(subdivisions, bool) or \
            not isinstance(subdivisions, (int, np.integer)):
        raise ValueError(f"subdivisions must be an integer, got "
                         f"{subdivisions!r}")
    if subdivisions < 1:
        raise ValueError(f"subdivisions must be >= 1, got {subdivisions}")
    m = np.zeros((bins_codomain.size, bins_domain.size))
    for cells, points in bins_domain.cell_samples(
            subdivisions, _chunk_cells(bins_domain, subdivisions)):
        _lift_chunk(f, cells, points, bins_domain, bins_codomain, m)
    return m / subdivisions ** len(bins_domain.edges)


def _read_axes(body) -> tuple[int, ...] | None:
    """The distinct source axes a Builtin declares it reads, in order;
    None for any other body, or for one that declares no axis."""
    if isinstance(body, Builtin) and body.reads:
        return tuple(sorted(set(body.reads)))
    return None


def _copied_axes(body, dim: int) -> tuple[int, ...] | None:
    """The source axis each output of a Projection or an Identity on
    ``dim`` axes copies, in output order; None for any other body."""
    if isinstance(body, Identity):
        return tuple(range(dim))
    if isinstance(body, Projection):
        return body.indices
    return None


def _axis_counts(edge, out_edges: tuple) -> np.ndarray | None:
    """How many of the midpoints of each bin of one source axis's
    ``edge`` land in each cell of the grid of ``out_edges``, every axis
    of which copies the midpoint: an array of that grid's shape, then
    the bins of ``edge``; None when a midpoint lies outside the grid.
    Each axis bins as ``BinGrid._axis_bins`` does.  With no
    ``out_edges`` the grid has one cell, which holds every midpoint."""
    mids = _midpoints(edge, LIFT_SUBDIVISIONS)
    bins, low, high = len(mids), mids.min(), mids.max()
    mids = mids.ravel()
    flat = 0
    for out in out_edges:
        if not out[0] <= low or not high <= out[-1]:
            return None
        inner = np.array(out[1:-1], dtype=float)
        flat = flat * (len(out) - 1) + inner.searchsorted(mids, side="right")
    shape = tuple(len(out) - 1 for out in out_edges) + (bins,)
    return np.bincount(flat * bins + np.arange(bins).repeat(LIFT_SUBDIVISIONS),
                       minlength=math.prod(shape)).reshape(shape)


def _count_projection(kept, grid: BinGrid, grid_out: BinGrid):
    """The counts ``_lift_chunk`` writes for a body whose output o copies
    source axis ``kept[o]``, from every cell of ``grid``, found without a
    sample: a (codomain cells, source cells) integer matrix, or None when
    a midpoint lies outside the range of an output that copies it.

    A sample is a product of per-axis midpoints, and each output copies
    one of them, so a cell's count in a codomain cell is the product
    over the source axes of ``_axis_counts``, each taken jointly over
    the outputs that copy its axis; an axis that no output copies gives
    LIFT_SUBDIVISIONS per bin.  The Kronecker product of the tables
    holds them all, its rows grouped by axis; a row gather puts them in
    output order."""
    counts, order = np.ones((1, 1), dtype=np.intp), []
    for ax in reversed(range(len(grid.edges))):
        outs = [o for o, k in enumerate(kept) if k == ax]
        table = _axis_counts(grid.edges[ax],
                             tuple(grid_out.edges[o] for o in outs))
        if table is None:
            return None
        table = table.reshape(-1, table.shape[-1])
        counts = (table[:, None, :, None] * counts[None, :, None, :]) \
            .reshape(len(table) * len(counts), -1)
        order = outs + order
    if order != sorted(order):
        cells = np.arange(grid_out.size).reshape(
            [grid_out.shape[o] for o in order])
        counts = counts[cells.transpose(np.argsort(order)).ravel()]
    return counts


def lift_sheaf(sh: Sheaf, grids: dict) -> Sheaf:
    """Linearize a sheaf by replacing each native stalk with probability
    distributions over a grid and each restriction with its stochastic
    lift.

    ``grids`` maps the ids in ``sh.native_ids()`` to BinGrid instances
    matching the stalk dimensions.  Each edge's matrix equals
    ``stochastic_lift(body, grids[src], grids[dst], LIFT_SUBDIVISIONS)``
    bit for bit, but no Projection or Identity is sampled, and every
    other body is sampled on the sub-grid of the axes it reads.  When
    edges fail, the first failing one in ``sh.edges`` raises its error.

    A Projection or an Identity is counted on the whole source grid
    (``_count_projection``), and its counts divided by the samples per
    cell.  Every other body is sampled on the sub-grid of its declared
    ``reads`` (``_read_axes``; all axes when it declares none), once for
    all the edges from one source that read the same axes.  Its samples
    go to the body embedded in the source dimension, NaN on the axes it
    does not read.  A domain cell's samples repeat each sample of its
    cell in the read axes a = LIFT_SUBDIVISIONS ** (unread axes) times,
    so its column holds c a / (a b) where the sub-grid's holds c / b:
    quotients of the same rational, which round alike.  Each domain cell
    takes the column of its cell in the read axes.  An edge whose
    sub-lift fails, or with a midpoint outside its codomain, is lifted
    again on the full grid, in edge order, so that its error names the
    same sample.  A builtin seen to compute with an axis it did not
    declare is refused when its sheaf is built
    (``sheaf._check_builtin``); one the probe missed, whose images the
    NaN leaves not finite, gets the full lift.
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
    matrices, failed, by_reads = {}, set(), {}
    for (src, dst), rm in sh.edges.items():
        dim = len(grids[src].edges)
        kept = _copied_axes(rm.body, dim)
        if kept is None:
            axes = _read_axes(rm.body) or tuple(range(dim))
            by_reads.setdefault((src, axes), []).append((src, dst))
            continue
        counts = _count_projection(kept, grids[src], grids[dst])
        if counts is None:
            failed.add((src, dst))
        else:
            matrices[src, dst] = counts / LIFT_SUBDIVISIONS ** dim
    for (src, axes), group in by_reads.items():
        grid = grids[src]
        sub = BinGrid(tuple(grid.edges[ax] for ax in axes))
        for key in group:
            matrices[key] = np.zeros((grids[key[1]].size, sub.size))
        for cells, points in grid.cell_samples(
                LIFT_SUBDIVISIONS, _chunk_cells(sub, LIFT_SUBDIVISIONS), axes):
            for key in group:
                if key in failed:
                    continue
                try:
                    _lift_chunk(sh.edges[key].body, cells, points, sub,
                                grids[key[1]], matrices[key])
                except Exception:
                    failed.add(key)
        # each cell's column in the read axes
        view = [n if ax in axes else 1 for ax, n in enumerate(grid.shape)]
        column = np.broadcast_to(np.arange(sub.size).reshape(view),
                                 grid.shape).ravel()
        for key in group:
            if key not in failed:
                matrices[key] = matrices[key][:, column] / \
                    LIFT_SUBDIVISIONS ** len(axes)
    # a failed edge is lifted again on the whole grid, in edge order, so
    # the first whose whole lift fails raises, as a loop over the edges
    # one at a time would
    for key in sh.edges:
        if key in failed:
            matrices[key] = stochastic_lift(sh.edges[key].body, grids[key[0]],
                                            grids[key[1]], LIFT_SUBDIVISIONS)
    edges = [RestrictionMap(t.opens[src], t.opens[dst],
                            Linear(matrices[src, dst]))
             for src, dst in sh.edges]
    return Sheaf(t, stalks, edges)
