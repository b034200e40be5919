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
from functools import cache, partial

import numpy as np

from . import spaces as sp
from ._linalg import nullspace, numeric_rank
from .errors import (
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
    without it ``batch`` calls ``fn`` once per row.  ``reads``, when
    given, names the input coordinates the map reads; None means every
    one.  A ``Sheaf`` built on it probes both (``_check_builtin``)."""

    def __init__(self, name, fn, params=None, batch_fn=None, reads=None):
        self.name = name
        self.fn = fn
        self.params = dict(params or {})
        self.batch_fn = batch_fn
        self.reads = None if reads is None else tuple(reads)

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
        """The product of the bodies' matrices, the first not multiplied
        by an identity (so it may be that body's own array: read it
        only); the identity when there are no bodies."""
        m = None
        for b in self.bodies:
            step = b.matrix(in_dim if m is None else m.shape[0])
            if step is None:
                return None
            m = step if m is None else step @ m
        return np.eye(in_dim) if m is None else m


BUILTIN_CATALOG: dict = {}


def register_builtin(name, factory, batch=None, reads=None):
    """Register a factory(params) -> callable for JSON-spec restrictions.

    The callable maps one point, a tuple of Python floats, to a tuple.
    ``batch``, when given, is a factory(params) -> callable that maps
    the rows of an (n, d) float array to an (n, k) array and agrees
    with the point callable row by row; stochastic lifts push whole
    sample arrays through it.  Without it a lift calls the point
    callable once per sample point.

    ``reads``, when given, lists the input coordinates the callable
    reads: its output must not change, in any bit, when another
    coordinate does.  A lift then samples only those axes.  None means
    it reads every coordinate.  Building a ``Sheaf`` on the builtin
    checks both halves: each index lies in the source stalk, and the
    output on a sample point, by the point call and by the batch call,
    is the same with every other coordinate replaced."""
    BUILTIN_CATALOG[name] = (factory, batch, reads)


def resolve_builtin(name, params=None) -> Builtin:
    try:
        factory, batch, reads = BUILTIN_CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown builtin restriction {name!r}") from None
    params = dict(params or {})
    return Builtin(name, factory(dict(params)), params,
                   None if batch is None else batch(dict(params)), reads)


def _check_body(body, src: sp.ValueSpace, dst_dim: int, probe):
    """Reject a body that cannot map the source stalk into the target:
    a matrix not shaped (target dim, source dim), an offset not of the
    target's length, projection indices that leave the source or do not
    number the target dim, an identity between stalks of different
    dims, a builtin that fails ``_check_builtin`` on ``probe``."""
    if isinstance(body, Builtin):
        _check_builtin(body, src, dst_dim, probe)
    if isinstance(body, (Linear, Affine)) and \
            body.mat.shape != (dst_dim, src.dim):
        raise SpaceMismatch(f"matrix of shape {body.mat.shape}, the stalks "
                            f"need {(dst_dim, src.dim)}")
    if isinstance(body, Affine) and body.offset.shape != (dst_dim,):
        raise SpaceMismatch(f"offset of shape {body.offset.shape}, the "
                            f"target stalk needs ({dst_dim},)")
    if isinstance(body, Projection) and \
            not all(0 <= i < src.dim for i in body.indices):
        raise SpaceMismatch(f"projection indices {list(body.indices)} must "
                            f"lie in [0, {src.dim})")
    if isinstance(body, Projection) and len(body.indices) != dst_dim:
        raise SpaceMismatch(f"projection keeps {len(body.indices)} "
                            f"coordinates, the target stalk has {dst_dim}")
    if isinstance(body, Identity) and src.dim != dst_dim:
        raise SpaceMismatch(f"identity from a {src.dim}-d stalk to a "
                            f"{dst_dim}-d one")


def _check_builtin(body: Builtin, src: sp.ValueSpace, dst_dim: int, probe):
    """Reject a builtin that cannot map ``probe(0)``, a sample of the
    source stalk, to ``dst_dim`` numbers: its params or the stalks do
    not fit the code it names, which would otherwise fail only when
    something first restricts along it.  Reject too a ``reads`` index
    outside the source, and a builtin whose output, by the point call or
    by the batch call, changes when the coordinates it does not declare
    in ``reads`` take those of a second sample, ``probe(1)``, since a
    lift reads no more than ``reads``."""
    points = [probe(0)]
    if body.reads is not None:
        if not all(0 <= i < src.dim for i in body.reads):
            raise SpaceMismatch(f"builtin {body.name!r} reads coordinates "
                                f"{list(body.reads)}, which must lie in "
                                f"[0, {src.dim})")
        other = probe(1)
        points.append(tuple(v if i in body.reads else other[i]
                            for i, v in enumerate(points[0])))
    try:
        outs = [[float(v).hex() for v in body(p)] for p in points]
        rows = [] if body.reads is None or len(outs[0]) != dst_dim else [
            row.tobytes() for row in batch_call(body, np.array(points))]
    except Exception as exc:  # the builtin is arbitrary registered code
        raise SpaceMismatch(f"builtin {body.name!r} fails on a point of "
                            f"the source stalk: {exc!r}") from None
    if len(outs[0]) != dst_dim:
        raise SpaceMismatch(f"builtin {body.name!r} gives {len(outs[0])} "
                            f"coordinates, the target stalk has {dst_dim}")
    if outs[0] != outs[-1] or rows[:1] != rows[-1:]:
        raise SpaceMismatch(f"builtin {body.name!r} declares it reads "
                            f"coordinates {list(body.reads)}, but its output "
                            f"changes with the others")


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


@dataclass(frozen=True, slots=True)
class Restriction:
    """A restriction compiled by ``Sheaf.restriction``: one ``(lo, hi,
    dst_lo, dst_hi, bodies)`` block per nonempty part of the target, the
    bodies applied in turn to the source's ``lo:hi``.  A call returns the
    image as a list, checked against the target's ``stalk`` where its
    length or a simplex factor could be wrong."""

    blocks: tuple
    stalk: sp.ValueSpace

    def __call__(self, coords) -> list:
        out = []
        for lo, hi, _, _, bodies in self.blocks:
            part = coords[lo:hi]
            for body in bodies:
                part = body(part)
            out.extend(part)
        stalk = self.stalk
        if len(out) != stalk.dim or stalk.has_simplex:
            sp.check_coords(stalk, out)
        return out


def _narrow(lo, hi, bodies):
    """``(lo, hi, bodies)`` with the leading identities, and leading
    projections onto a run of coordinates, folded into the slice instead
    of run.  A built sheaf's projections keep indices of their source,
    so the run lies inside the slice."""
    bodies = list(bodies)
    while bodies:
        if isinstance(bodies[0], Projection):
            keep = bodies[0].indices
            first = keep[0] if keep else 0
            if keep != tuple(range(first, first + len(keep))):
                break
            lo, hi = lo + first, lo + first + len(keep)
        elif not isinstance(bodies[0], Identity):
            break
        del bodies[0]
    return lo, hi, tuple(bodies)


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
                constraints.append((a, b, t.find(inter_mask).id))
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
        open or the end of a restriction has no stalk, NotComparable
        when no path of restrictions leads from a nonempty open with a
        stalk to one inside it, and then, edge by edge, SpaceMismatch
        naming the first edge whose body does not fit its stalks
        (``_check_body``)."""
        self.topology = topology
        self.stalks: dict[int, sp.ValueSpace] = {}
        for key, space in stalks.items():
            oid = key.id if isinstance(key, OpenSet) else int(key)
            self.stalks[oid] = space
        self.stalks.setdefault(topology.empty.id, sp.euclidean(0))
        missing = [b for b in topology.basis if b.id not in self.stalks]
        if missing:
            rest = f" and {len(missing) - 8} more" if len(missing) > 8 else ""
            raise MissingIntersectionStalk(
                "no stalk on basis opens: "
                + ", ".join(map(str, missing[:8])) + rest
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
        # edge path and ties go to the edge given first; every native
        # open inside the source must be reached
        out: dict[int, list[int]] = {}
        for a, b in self.edges:
            out.setdefault(a, []).append(b)
        self._chains: dict[tuple[int, int], Chain] = {}
        native = [(oid, topology.opens[oid].mask) for oid in self.native_ids()]
        for src in sorted(self.stalks):
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
            src_mask = topology.opens[src].mask
            for dst, dst_mask in native:
                if dst_mask & src_mask == dst_mask and dst not in paths:
                    raise NotComparable(
                        f"no restriction path from {topology.opens[src]} "
                        f"to {topology.opens[dst]}; check the sheaf "
                        f"specification")
            for dst, path in paths.items():
                self._chains[(src, dst)] = Chain(
                    (self.edges[step].body for step in zip(path, path[1:])),
                    path)
        # the builtins' probe points: the sample of each source stalk
        # from each fixed seed, drawn once per source for this build
        sample = cache(lambda src, seed: sp.sample_point(
            self.stalks[src], random.Random(seed)).coords)
        for (src, dst), rm in self.edges.items():
            try:
                _check_body(rm.body, self.stalks[src], self.stalks[dst].dim,
                            partial(sample, src))
            except SpaceMismatch as exc:
                raise SpaceMismatch(f"restriction {rm.source.key()} -> "
                                    f"{rm.target.key()}: {exc}") from None
        self._linear = all(
            space.is_linear for space in self.stalks.values()) and all(
            hasattr(rm.body, "matrix")
            and rm.body.matrix(self.stalks[src].dim) is not None
            for (src, _), rm in self.edges.items())
        # given stalks plus the product stalk of every pullback built
        self._all_stalks: dict[int, sp.ValueSpace] = dict(self.stalks)
        self._pullback_cache: dict[int, Pullback] = {}
        self._restrictions: dict[tuple[int, int], Restriction] = {}
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
        linear maps, decided when the sheaf is built; pullback stalks
        are products of given ones."""
        return self._linear

    def require_linear(self, what: str):
        if not self.is_linear():
            raise NonlinearSheaf(f"{what} requires a linear sheaf")

    # -- restriction ---------------------------------------------------------

    def _layout(self, oid: int) -> dict[int, tuple[int, int]]:
        """Coordinate slice (lo, hi) of each part of an open, in order."""
        pb = self.pullback(oid)
        if pb is None:
            return {oid: (0, self.stalks[oid].dim)}
        return pb.slices()

    def restriction(self, src: int, dst: int) -> Restriction:
        """The restriction from ``src`` to ``dst``, compiled once: each
        nonempty part of ``dst`` takes the chain from the first part of
        ``src`` that contains it.  Raises NotComparable unless ``dst``
        lies inside ``src``."""
        if (compiled := self._restrictions.get((src, dst))) is not None:
            return compiled
        t = self.topology
        small, big = t.opens[dst], t.opens[src]
        if small.mask & big.mask != small.mask:
            raise NotComparable(f"{small} is not contained in {big}")
        src_slices = self._layout(src)
        blocks = []
        for b_id, (dst_lo, dst_hi) in self._layout(dst).items():
            b_mask = t.opens[b_id].mask
            if not b_mask:
                continue
            for part_id, (lo, hi) in src_slices.items():
                if b_mask & t.opens[part_id].mask == b_mask:
                    lo, hi, bodies = _narrow(
                        lo, hi, self._chains[part_id, b_id].bodies)
                    blocks.append((lo, hi, dst_lo, dst_hi, bodies))
                    break
        compiled = Restriction(tuple(blocks), self.stalk(dst))
        self._restrictions[src, dst] = compiled
        return compiled

    def restrict_coords(self, src: int, dst: int, coords):
        """Restrict bare coordinates on ``src`` to ``dst`` by
        ``restriction``, checked against the stalk over ``dst``."""
        if src == dst:
            return tuple(coords)
        return tuple(self.restriction(src, dst)(coords))

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
        restriction = self.restriction(src, dst)
        m = np.zeros((restriction.stalk.dim, self.stalk(src).dim))
        for lo, hi, dst_lo, dst_hi, bodies in restriction.blocks:
            block = Chain(bodies, ()).matrix(hi - lo)
            if block is None:
                raise NonlinearSheaf("matrix restriction requires linear maps")
            m[dst_lo:dst_hi, lo:hi] = block
        m.flags.writeable = False
        self._ambient_cache[key] = m
        return m

    def restriction_matrix(self, src: int, dst: int) -> np.ndarray:
        """Restriction in subspace coordinates (kernel bases on both ends);
        exactly the identity from an open to itself, and the read-only
        ambient matrix between two opens with stalks of their own, whose
        kernel bases are identities."""
        key = (src, dst)
        cached = self._matrix_cache.get(key)
        if cached is None:
            if src == dst:
                cached = np.eye(self.dim(src))
            elif src in self.stalks and dst in self.stalks:
                cached = self.ambient_matrix(src, dst)
            else:
                amb = self.ambient_matrix(src, dst)
                cached = (self.kernel_basis(dst).T @ amb
                          @ self.kernel_basis(src))
            self._matrix_cache[key] = cached
        return cached


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
