"""Assignments, the sup pseudometric, and the consistency radius."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spaces as sp
from .errors import SheafMismatch, SpaceMismatch
from .sheaf import Sheaf
from .topology import OpenSet, comparable_pairs

EPS_SLACK = 1e-12


class Assignment:
    """Partial mapping from open sets to observations in their stalks.

    A value on the empty open is checked and dropped: its stalk R^0 has
    the single point (), so it carries nothing and restricts from
    nothing."""

    def __init__(self, sheaf: Sheaf, values: dict | None = None):
        self.sheaf = sheaf
        self.values: dict[int, sp.Point] = {}
        for key, point in (values or {}).items():
            self.set(key, point)

    def set(self, u, point: sp.Point):
        oid = u.id if isinstance(u, OpenSet) else int(u)
        space = self.sheaf.stalk(oid)
        if point.space != space:
            raise SpaceMismatch(
                f"value for {self.sheaf.topology.opens[oid]} lies in "
                f"{point.space.describe()}, stalk is {space.describe()}"
            )
        if self.sheaf.topology.opens[oid].mask:
            self.values[oid] = point

    def get(self, u) -> sp.Point | None:
        oid = u.id if isinstance(u, OpenSet) else int(u)
        return self.values.get(oid)

    def defined_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class EdgeError:
    """Discrepancy along one inclusion, in the smaller stalk's metric."""

    smaller: OpenSet
    larger: OpenSet
    error: float

    def __str__(self):
        return f"{self.smaller} within {self.larger}: {self.error:.6g}"


@dataclass
class RadiusResult:
    radius: float
    edges: list[EdgeError] = field(default_factory=list)


def assignment_distance(a: Assignment, b: Assignment) -> float:
    """Sup over commonly defined opens of the stalk distance; 0 if none."""
    if a.sheaf is not b.sheaf:
        raise SheafMismatch("assignments belong to different sheaves")
    best = 0.0
    for oid, pa in a.values.items():
        pb = b.values.get(oid)
        if pb is None:
            continue
        d = sp.distance(a.sheaf.stalk(oid), pa, pb)
        if d > best:
            best = d
    return best


def nan_error(small: OpenSet, large: OpenSet,
              what: str = "NaN") -> SpaceMismatch:
    """The error for a NaN distance, or another that is ``what``,
    between a value on ``small`` and the restriction of one on
    ``large``."""
    return SpaceMismatch(f"distance on {small} to the restriction from "
                         f"{large} is {what}")


def consistency_radius(a: Assignment) -> RadiusResult:
    """Largest discrepancy d_V(a(V), a(U)|_V) over defined pairs V < U.

    The sup runs over every pair of defined opens with V strictly
    inside U, using composed restrictions.  Edges come back sorted by
    decreasing error; a NaN error, or an infinite one from a reading
    whose distance overflows, raises SpaceMismatch naming the pair.
    """
    sh = a.sheaf
    defined = [sh.topology.opens[oid] for oid in a.defined_ids()]
    edges = []
    for large in defined:
        pu = a.values[large.id]
        for small in defined:
            if small.id == large.id or small.mask & large.mask != small.mask:
                continue
            pv = a.values[small.id]
            restricted = sh.restrict_coords(large.id, small.id, pu.coords)
            err = sp.coord_distance(sh.stalk(small.id), pv.coords, restricted)
            if not err < math.inf:
                raise nan_error(small, large,
                                "NaN" if err != err else "infinite")
            edges.append(EdgeError(small, large, err))
    edges.sort(key=lambda e: (-e.error, e.larger.id, e.smaller.id))
    radius = edges[0].error if edges else 0.0
    return RadiusResult(radius, edges)


def is_epsilon_approximate(a: Assignment, eps: float) -> bool:
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    return consistency_radius(a).radius <= eps + EPS_SLACK


def pullback_global(sh: Sheaf, s_top: sp.Point) -> Assignment:
    """Total assignment obtained by restricting a global section everywhere.

    The section is restricted once to each native open.  Every other
    union takes its parts' values side by side, which is what a
    restriction to it computes: ``Sheaf._blocks`` restricts to each part
    along the same chain, and the union's stalk is the product of the
    parts' stalks, so the parts' ``make_point`` checks already cover it.
    Opens sort by size, so each part is reached before its unions and the
    first error raised names the same open as a restriction to every
    open in turn would.
    """
    top = sh.topology.full
    if s_top.space != sh.stalk(top.id):
        raise SpaceMismatch("section does not lie in the stalk over X")
    a = Assignment(sh)
    values = a.values
    for u in sh.topology.opens:
        if u.mask == 0:
            continue
        if u.id == top.id:
            values[u.id] = s_top
            continue
        pb = sh.pullback(u.id)
        if pb is None:
            coords = sh.restrict_coords(top.id, u.id, s_top.coords)
            values[u.id] = sp.make_point(sh.stalk(u.id), coords)
        else:
            coords = ()
            for p in pb.parts:
                coords += values[p].coords
            values[u.id] = sp.Point(coords, sh.stalk(u.id))
    return a


def lipschitz_bound(sh: Sheaf) -> float:
    """Largest operator 2-norm over all composed linear restrictions."""
    sh.require_linear("lipschitz_bound")
    worst = 0.0
    for small, large in comparable_pairs(sh.topology):
        m = sh.restriction_matrix(large.id, small.id)
        if m.size:
            worst = max(worst, float(np.linalg.norm(m, 2)))
    return worst
