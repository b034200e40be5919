"""Sheaf structure on a finite topology.

A sheaf is fixed by value spaces (stalks) on its native opens, those
with a stalk of their own (the basis, subbase members and their
intersections, and any union the caller gave a stalk), and restriction
maps between comparable opens.  ``Sheaf.stalks`` holds only those.
Every other union carries the pullback of the maximal native opens
inside it: tuples of part observations that agree on overlaps, with
projection restrictions.  ``Sheaf.pullback`` builds that layout the
first time something asks for it.  For linear sheaves the pullback
subspaces are realized explicitly through orthonormal kernel bases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import spaces as sp
from ._linalg import nullspace, numeric_rank
from .errors import (
    IntersectionNotOpen,
    MissingIntersectionStalk,
    NonlinearSheaf,
    NotComparable,
    SpaceMismatch,
)
from .topology import OpenSet, Topology

# ---------------------------------------------------------------------------
# restriction map bodies
#
# A body maps one point, a tuple of coordinates, to a tuple; ``batch``
# maps the rows of an (n, d) array to an (n, k) array in one go.

def batch_call(body, points: np.ndarray) -> np.ndarray:
    """A body, or any callable on tuples, applied to the rows of an
    (n, d) array: its ``batch`` call when it has one, else one call per
    row on a tuple of Python floats, stacked into an (n, k) array."""
    batch = getattr(body, "batch", None)
    if batch is None:
        return np.array([tuple(body(p)) for p in map(tuple, points.tolist())],
                        dtype=float)
    # NumPy warns where the point call's float arithmetic passes inf and
    # NaN on silently; callers check the images themselves
    with np.errstate(all="ignore"):
        return np.asarray(batch(points), dtype=float)


class Identity:
    def __call__(self, coords):
        return tuple(coords)

    def batch(self, points):
        return points

    def matrix(self, in_dim):
        return np.eye(in_dim)


class Projection:
    """Keep the listed coordinate positions, in order."""

    def __init__(self, indices):
        self.indices = tuple(int(i) for i in indices)

    def __call__(self, coords):
        return tuple(coords[i] for i in self.indices)

    def batch(self, points):
        return points[:, list(self.indices)]

    def matrix(self, in_dim):
        m = np.zeros((len(self.indices), in_dim))
        for row, i in enumerate(self.indices):
            m[row, i] = 1.0
        return m


class Linear:
    """Matrix restriction; ``batch`` agrees with the point call up to
    the rounding of each dot product, not bit for bit."""

    def __init__(self, matrix):
        self.mat = np.asarray(matrix, dtype=float)
        if self.mat.ndim != 2:
            raise ValueError("linear restriction needs a 2-d matrix")
        if not np.isfinite(self.mat).all():
            raise ValueError("linear restriction needs finite entries")

    def __call__(self, coords):
        return tuple(self.mat @ np.asarray(coords, dtype=float))

    def batch(self, points):
        return points @ self.mat.T

    def matrix(self, in_dim):
        if self.mat.shape[1] != in_dim:
            raise SpaceMismatch(
                f"matrix expects dim {self.mat.shape[1]}, stalk has {in_dim}"
            )
        return self.mat


class Affine:
    def __init__(self, matrix, offset):
        self.mat = np.asarray(matrix, dtype=float)
        self.offset = np.asarray(offset, dtype=float)
        if not np.isfinite(np.append(self.mat, self.offset)).all():
            raise ValueError("affine restriction needs finite entries")

    def __call__(self, coords):
        return tuple(self.mat @ np.asarray(coords, dtype=float) + self.offset)

    def batch(self, points):
        return points @ self.mat.T + self.offset

    def matrix(self, in_dim):
        return None


class Builtin:
    """Named map from the registered catalog (e.g. scenario geometry).
    ``batch_fn``, when given, maps an (n, d) array to an (n, k) array;
    without it ``batch`` calls ``fn`` once per row."""

    def __init__(self, name, fn, params=None, batch_fn=None):
        self.name = name
        self.fn = fn
        self.params = dict(params or {})
        self.batch_fn = batch_fn

    def __call__(self, coords):
        return tuple(self.fn(coords))

    def batch(self, points):
        if self.batch_fn is None:
            return batch_call(self.fn, points)
        return self.batch_fn(points)

    def matrix(self, in_dim):
        return None


class Chain:
    """Composite body; entries apply left to right.  ``path`` holds the
    ids of the opens a composite of restriction edges passes through."""

    def __init__(self, bodies, path):
        self.bodies = tuple(bodies)
        self.path = tuple(path)

    def __call__(self, coords):
        for b in self.bodies:
            coords = b(coords)
        return coords

    def batch(self, points):
        for b in self.bodies:
            points = batch_call(b, points)
        return points

    def matrix(self, in_dim):
        m = np.eye(in_dim)
        for b in self.bodies:
            step = b.matrix(m.shape[0])
            if step is None:
                return None
            m = step @ m
        return m


BUILTIN_CATALOG: dict = {}


def register_builtin(name, factory, batch=None):
    """Register a factory(params) -> callable for JSON-spec restrictions.

    The callable maps one point, a tuple of Python floats, to a tuple.
    ``batch``, when given, is a factory(params) -> callable that maps
    the rows of an (n, d) float array to an (n, k) array and agrees
    with the point callable row by row; stochastic lifts push whole
    sample arrays through it.  Without it a lift calls the point
    callable once per sample point."""
    BUILTIN_CATALOG[name] = (factory, batch)


def resolve_builtin(name, params=None) -> Builtin:
    try:
        factory, batch = BUILTIN_CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown builtin restriction {name!r}") from None
    params = dict(params or {})
    return Builtin(name, factory(dict(params)), params,
                   None if batch is None else batch(dict(params)))


@dataclass(frozen=True)
class RestrictionMap:
    source: OpenSet  # larger open
    target: OpenSet  # smaller open
    body: object


@dataclass(frozen=True)
class Pullback:
    """Decomposition of a union open into maximal native parts."""

    parts: tuple[int, ...]
    offsets: tuple[int, ...]            # coordinate offset of each part
    dims: tuple[int, ...]
    constraints: tuple[tuple[int, int, int], ...]  # (part_a, part_b, inter_id)

    def slices(self) -> dict[int, tuple[int, int]]:
        """Coordinate slice (lo, hi) of each part, in order."""
        return {p: (off, off + dim)
                for p, off, dim in zip(self.parts, self.offsets, self.dims)}


def _pullback(sh: Sheaf, mask: int) -> Pullback:
    """The maximal native opens strictly inside ``mask``, laid side by
    side, with an agreement constraint on each overlapping pair; the
    constraint names the intersection open, native or not."""
    t = sh.topology
    inside = [t.opens[n] for n in sh.native_ids()
              if t.opens[n].mask & mask == t.opens[n].mask != mask]
    parts = sorted(
        b.id for b in inside
        if not any(b.mask != c.mask and b.mask & c.mask == b.mask
                   for c in inside)
    )
    dims = tuple(sh.stalks[p].dim for p in parts)
    offsets = tuple(int(x) for x in np.cumsum((0,) + dims[:-1]))
    constraints = []
    for i, a in enumerate(parts):
        for b in parts[i + 1:]:
            inter_mask = t.opens[a].mask & t.opens[b].mask
            if inter_mask:
                inter = t.find(inter_mask)
                if inter is None:
                    raise IntersectionNotOpen(
                        f"intersection of {t.opens[a]} and {t.opens[b]} "
                        f"is not an open set"
                    )
                constraints.append((a, b, inter.id))
    return Pullback(tuple(parts), offsets, dims, tuple(constraints))


class Sheaf:
    """Stalks plus restrictions.

    ``stalks`` holds the stalks the caller gave, plus R^0 on the empty
    open; every other open gets the pullback of its maximal native parts
    from ``pullback`` on first use.  Immutable once built; the internal
    memo caches only ever gain idempotent entries, so concurrent readers
    are safe.
    """

    def __init__(self, topology: Topology, stalks: dict, restrictions):
        """`stalks` maps OpenSet (or id) -> ValueSpace on the basis opens
        and any union with a stalk of its own; the empty open gets R^0
        unless given.  `restrictions` is an iterable of RestrictionMap
        between comparable such opens (at least the covering pairs of
        the basis poset).  Raises MissingIntersectionStalk when a basis
        open or the end of a restriction has no stalk."""
        self.topology = topology
        self.stalks: dict[int, sp.ValueSpace] = {}
        for key, space in stalks.items():
            oid = key.id if isinstance(key, OpenSet) else int(key)
            self.stalks[oid] = space
        self.stalks.setdefault(topology.empty.id, sp.euclidean(0))
        missing = [b for b in topology.basis if b.id not in self.stalks]
        if missing:
            raise MissingIntersectionStalk(
                "no stalk on basis opens: " + ", ".join(map(str, missing))
            )
        self.edges: dict[tuple[int, int], RestrictionMap] = {}
        for rm in restrictions:
            if rm.target.mask & rm.source.mask != rm.target.mask:
                raise NotComparable(
                    f"restriction {rm.source}->{rm.target}: target is not "
                    f"a subset of source"
                )
            for end in (rm.source, rm.target):
                if end.id not in self.stalks:
                    raise MissingIntersectionStalk(
                        f"restriction {rm.source}->{rm.target}: {end} has "
                        f"no stalk of its own")
            self.edges[(rm.source.id, rm.target.id)] = rm
        # the composite restriction from each open with a stalk of its
        # own to every open its edges reach: one breadth-first pass per
        # source, edges in the order given, so each chain is the shortest
        # edge path and ties go to the edge given first
        out: dict[int, list[int]] = {}
        for a, b in self.edges:
            out.setdefault(a, []).append(b)
        self._chains: dict[tuple[int, int], Chain] = {}
        for src in self.stalks:
            paths = {src: (src,)}
            frontier = [src]
            while frontier:
                reached = []
                for a in frontier:
                    for b in out.get(a, ()):
                        if b not in paths:
                            paths[b] = paths[a] + (b,)
                            reached.append(b)
                frontier = reached
            for dst, path in paths.items():
                self._chains[(src, dst)] = Chain(
                    (self.edges[step].body for step in zip(path, path[1:])),
                    path)
        # given stalks plus the product stalk of every pullback built
        self._all_stalks: dict[int, sp.ValueSpace] = dict(self.stalks)
        self._pullback_cache: dict[int, Pullback] = {}
        self._blocks_cache: dict[tuple[int, int], tuple] = {}
        self._kernel_cache: dict[int, np.ndarray] = {}
        self._ambient_cache: dict[tuple[int, int], np.ndarray] = {}
        self._matrix_cache: dict[tuple[int, int], np.ndarray] = {}

    # -- basic accessors ----------------------------------------------------

    def stalk(self, u) -> sp.ValueSpace:
        oid = u.id if isinstance(u, OpenSet) else int(u)
        try:
            return self._all_stalks[oid]
        except KeyError:
            self.pullback(oid)
            return self._all_stalks[oid]

    def native_ids(self) -> list[int]:
        """Nonempty opens with a stalk of their own, in id order: the
        basis and any union given a stalk."""
        return [oid for oid in sorted(self.stalks)
                if self.topology.opens[oid].mask]

    def pullback(self, oid: int) -> Pullback | None:
        """None for an open with its own stalk; for any other open, its
        maximal native parts laid side by side, built with their
        product stalk the first time it is asked for."""
        if oid in self.stalks:
            return None
        pb = self._pullback_cache.get(oid)
        if pb is None:
            pb = _pullback(self, self.topology.opens[oid].mask)
            self._all_stalks[oid] = sp.product(
                [self.stalks[p] for p in pb.parts])
            self._pullback_cache[oid] = pb
        return pb

    def is_linear(self) -> bool:
        """All given stalks vector-space valued and all restrictions
        linear maps; pullback stalks are products of given ones."""
        if not all(space.is_linear for space in self.stalks.values()):
            return False
        for (src, _), rm in self.edges.items():
            if rm.body.matrix(self.stalks[src].dim) is None:
                return False
        return True

    def require_linear(self, what: str):
        if not self.is_linear():
            raise NonlinearSheaf(f"{what} requires a linear sheaf")

    # -- composition through the basis poset --------------------------------

    def _basis_chain(self, src: int, dst: int) -> Chain:
        """Composite restriction between comparable native opens, read
        from the chains built with the sheaf."""
        try:
            return self._chains[(src, dst)]
        except KeyError:
            raise NotComparable(
                f"no restriction path from {self.topology.opens[src]} to "
                f"{self.topology.opens[dst]}; check the sheaf specification"
            ) from None

    # -- pullback layout -----------------------------------------------------

    def _layout(self, oid: int) -> dict[int, tuple[int, int]]:
        """Coordinate slice (lo, hi) of each part of an open, in order."""
        pb = self.pullback(oid)
        if pb is None:
            return {oid: (0, self.stalks[oid].dim)}
        return pb.slices()

    def _blocks(self, src: int, dst: int):
        """The restriction from ``src`` to ``dst`` as one block per part of
        ``dst``: ``(src_lo, src_hi, dst_lo, dst_hi, chain)``, where the
        source slice holds the first part of ``src`` that carries it.
        Every native open inside ``src`` lies in one of its parts."""
        key = (src, dst)
        blocks = self._blocks_cache.get(key)
        if blocks is not None:
            return blocks
        t = self.topology
        small, big = t.opens[dst], t.opens[src]
        if small.mask & big.mask != small.mask:
            raise NotComparable(f"{small} is not contained in {big}")
        src_slices = self._layout(src)
        blocks = []
        for b_id, (dst_lo, dst_hi) in self._layout(dst).items():
            b_mask = t.opens[b_id].mask
            for part_id, (lo, hi) in src_slices.items():
                if b_mask & t.opens[part_id].mask == b_mask:
                    blocks.append((lo, hi, dst_lo, dst_hi,
                                   self._basis_chain(part_id, b_id)))
                    break
        blocks = tuple(blocks)
        self._blocks_cache[key] = blocks
        return blocks

    # -- point-level restriction ---------------------------------------------

    def restrict_coords(self, src: int, dst: int, coords):
        """Restrict bare coordinates on ``src`` to ``dst``; the result is
        checked against the stalk over ``dst``."""
        if src == dst:
            return tuple(coords)
        out = []
        for lo, hi, _, _, chain in self._blocks(src, dst):
            out.extend(chain(coords[lo:hi]))
        # _blocks built the layout of dst, so its stalk is cached
        sp.check_coords(self._all_stalks[dst], out)
        return tuple(out)

    def restrict(self, u, v, value: sp.Point) -> sp.Point:
        """Restrict an observation on U to the open subset V."""
        u_id = u.id if isinstance(u, OpenSet) else int(u)
        v_id = v.id if isinstance(v, OpenSet) else int(v)
        if value.space != self.stalk(u_id):
            raise SpaceMismatch("value does not lie in the stalk over U")
        coords = self.restrict_coords(u_id, v_id, value.coords)
        return sp.make_point(self.stalk(v_id), coords)

    # -- linear representation ----------------------------------------------

    def _agreement_rows(self, pb: Pullback) -> np.ndarray:
        """Matrix on the stacked coordinates of ``pb``'s parts whose
        kernel is the tuples that agree on every overlap."""
        slices = pb.slices()
        amb = sum(pb.dims)
        rows = [np.zeros((0, amb))]
        for a, b, inter in pb.constraints:
            (a_lo, a_hi), (b_lo, b_hi) = slices[a], slices[b]
            row = np.zeros((self.stalk(inter).dim, amb))
            row[:, a_lo:a_hi] = self.ambient_matrix(a, inter)
            row[:, b_lo:b_hi] -= self.ambient_matrix(b, inter)
            rows.append(row)
        return np.vstack(rows)

    def kernel_basis(self, oid: int) -> np.ndarray:
        """Orthonormal basis of the stalk subspace in ambient coordinates."""
        cached = self._kernel_cache.get(oid)
        if cached is not None:
            return cached
        pb = self.pullback(oid)
        k = (np.eye(self.stalk(oid).dim) if pb is None
             else nullspace(self._agreement_rows(pb)))
        self._kernel_cache[oid] = k
        return k

    def dim(self, oid: int) -> int:
        """Linear dimension of a stalk (pullbacks: subspace dimension)."""
        if self.pullback(oid) is None:
            return self.stalks[oid].dim
        return self.kernel_basis(oid).shape[1]

    def ambient_matrix(self, src: int, dst: int) -> np.ndarray:
        """Restriction as a matrix between ambient coordinate tuples;
        built once per pair and read-only."""
        key = (src, dst)
        m = self._ambient_cache.get(key)
        if m is not None:
            return m
        m = np.zeros((self.stalk(dst).dim, self.stalk(src).dim))
        for lo, hi, dst_lo, dst_hi, chain in self._blocks(src, dst):
            block = chain.matrix(hi - lo)
            if block is None:
                raise NonlinearSheaf("matrix restriction requires linear maps")
            m[dst_lo:dst_hi, lo:hi] = block
        m.flags.writeable = False
        self._ambient_cache[key] = m
        return m

    def restriction_matrix(self, src: int, dst: int) -> np.ndarray:
        """Restriction in subspace coordinates (kernel bases on both ends);
        exactly the identity from an open to itself."""
        key = (src, dst)
        cached = self._matrix_cache.get(key)
        if cached is None:
            if src == dst:
                cached = np.eye(self.dim(src))
            else:
                amb = self.ambient_matrix(src, dst)
                cached = (self.kernel_basis(dst).T @ amb
                          @ self.kernel_basis(src))
            self._matrix_cache[key] = cached
        return cached

    # -- sampling -------------------------------------------------------------

    def sample_stalk(self, oid: int, rng) -> sp.Point | None:
        """Random valid point of a stalk, or None when not supported."""
        pb = self.pullback(oid)
        if pb is None or not pb.constraints:
            return sp.sample_point(self.stalk(oid), rng)
        try:
            k = self.kernel_basis(oid)
        except NonlinearSheaf:
            top = self.topology.full.id
            if top != oid and self.pullback(top) is None:
                p = sp.sample_point(self.stalk(top), rng)
                coords = self.restrict_coords(top, oid, p.coords)
                return sp.make_point(self.stalk(oid), coords)
            return None
        z = np.array([rng.gauss(0.0, 10.0) for _ in range(k.shape[1])])
        return sp.make_point(self.stalk(oid), tuple(k @ z))


def complete_unions(sh: Sheaf) -> Sheaf:
    """A fresh sheaf on the same given stalks and edges.

    Never needed: ``Sheaf`` itself gives every union without a stalk of
    its own the pullback of its maximal native parts when first asked
    for (``Sheaf.pullback``): single-part unions reuse the part's stalk,
    disjoint parts yield a plain product, and overlapping parts record
    agreement constraints on their pairwise intersections.  Kept only
    for the benchmark's workloads, which still wrap their sheaves in it,
    and goes when they stop; completing a completed sheaf changes
    nothing.
    """
    return Sheaf(sh.topology, sh.stalks, sh.edges.values())


# ---------------------------------------------------------------------------
# axiom checkers

# largest path discrepancy verify_functoriality accepts
FUNCTORIALITY_TOL = 1e-9


@dataclass
class FunctorialityReport:
    ok: bool
    max_discrepancy: float
    checked_pairs: int
    witnesses: list = field(default_factory=list)

    def __str__(self):
        status = "ok" if self.ok else "FAILED"
        lines = [
            f"functoriality: {status} "
            f"(max path discrepancy {self.max_discrepancy:.3g} over "
            f"{self.checked_pairs} edge pairs)"
        ]
        for w in self.witnesses[:8]:
            lines.append(f"  - {w}")
        return "\n".join(lines)


def _gap(sh: Sheaf, one: Chain, other: Chain, samples: int, rng) -> float:
    """Largest difference between two composites with the same ends:
    exact on matrices, sampled on the source stalk otherwise."""
    source, target = sh.stalk(one.path[0]), sh.stalk(one.path[-1])
    m1, m2 = one.matrix(source.dim), other.matrix(source.dim)
    if m1 is not None and m2 is not None:
        return float(np.max(np.abs(m1 - m2), initial=0.0))
    worst = 0.0
    for _ in range(samples):
        x = sp.sample_point(source, rng).coords
        worst = max(worst, sp.coord_distance(target, one(x), other(x)))
    return worst


def verify_functoriality(sh: Sheaf, samples: int = 64) -> FunctorialityReport:
    """Path independence of the given restriction edges.

    Restrictions of pullback opens are composed from the canonical
    chains between native opens, so only edge paths need checking: for
    each edge (a, b) and native d inside b, the edge followed by the
    chain b -> d must equal the chain a -> d unless that chain starts
    with the edge; by induction every edge path then equals its chain.
    Linear composites are compared exactly as matrices, others on
    ``samples`` points of the source stalk, drawn from one fixed seed;
    one witness per failing pair.  Raises ValueError when ``samples`` is
    below 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = random.Random(2024)
    t = sh.topology
    native = sh.native_ids()
    worst = 0.0
    checked = 0
    witnesses = []
    for (a, b), rm in sh.edges.items():
        for d in native:
            rest = sh._chains.get((b, d))
            if rest is None:  # no edge path from b reaches d
                continue
            canonical = sh._chains[(a, d)]
            if canonical.path[1] == b:
                continue
            checked += 1
            via = Chain((rm.body,) + rest.bodies, (a,) + rest.path)
            gap = _gap(sh, via, canonical, samples, rng)
            worst = max(worst, gap)
            if gap > FUNCTORIALITY_TOL:
                witnesses.append(
                    f"{_render(t, via.path)} and {_render(t, canonical.path)}"
                    f" disagree by {gap:.3g}"
                )
    return FunctorialityReport(worst <= FUNCTORIALITY_TOL, worst, checked,
                               witnesses)


def _render(t: Topology, path) -> str:
    return " -> ".join(str(t.opens[oid]) for oid in path)


@dataclass
class GluingReport:
    ok: bool
    failures: list = field(default_factory=list)
    checked_pairs: int = 0

    def __str__(self):
        if self.ok:
            return f"gluing: ok ({self.checked_pairs} native unions)"
        lines = [f"gluing: FAILED ({len(self.failures)} failures over "
                 f"{self.checked_pairs} native unions)"]
        lines += [f"  - {f}" for f in self.failures[:8]]
        return "\n".join(lines)


def verify_gluing(sh: Sheaf) -> GluingReport:
    """Rank-based existence and uniqueness check for linear sheaves.

    A presheaf on a finite space is a sheaf exactly when each open's
    value is the limit of the native opens inside it; ``Sheaf.pullback``
    builds every other union as that limit.  So only a native W that is
    the union of the native opens strictly inside it is checked: the
    stacked restriction to its maximal native parts must reach the
    tuples that agree on overlaps (existence) and be injective
    (uniqueness).
    """
    sh.require_linear("verify_gluing")
    t = sh.topology
    failures = []
    checked = 0
    for w_id in sh.native_ids():
        w = t.opens[w_id]
        pb = _pullback(sh, w.mask)
        covered = 0
        for p in pb.parts:
            covered |= t.opens[p].mask
        if covered != w.mask:
            continue
        checked += 1
        joint = np.vstack([sh.ambient_matrix(w_id, p) for p in pb.parts])
        rank_joint = numeric_rank(joint)
        agree_dim = sum(pb.dims) - numeric_rank(sh._agreement_rows(pb))
        if rank_joint < agree_dim:
            failures.append(
                f"existence fails for {w}: joint image of its parts has "
                f"dimension {rank_joint}, agreement space {agree_dim}"
            )
        if rank_joint < sh.dim(w_id):
            failures.append(
                f"uniqueness fails for {w}: restriction to its parts has "
                f"kernel of dimension {sh.dim(w_id) - rank_joint}"
            )
    return GluingReport(not failures, failures, checked)
