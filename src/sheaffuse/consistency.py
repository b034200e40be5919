"""Assignments, the sup pseudometric, and the consistency radius."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import spaces as sp
from .errors import SpaceMismatch
from .sheaf import Sheaf
from .topology import OpenSet


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
    inside U, through ``Sheaf.restriction``.  Edges come back sorted by
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
            restricted = sh.restriction(large.id, small.id)(pu.coords)
            err = sp.coord_distance(sh.stalk(small.id), pv.coords, restricted)
            if not err < math.inf:
                raise nan_error(small, large,
                                "NaN" if err != err else "infinite")
            edges.append(EdgeError(small, large, err))
    edges.sort(key=lambda e: (-e.error, e.larger.id, e.smaller.id))
    radius = edges[0].error if edges else 0.0
    return RadiusResult(radius, edges)


def pullback_global(sh: Sheaf, s_top: sp.Point) -> Assignment:
    """The assignment a global section gives the whole space and each
    open with a stalk of its own, restricted once to each of those.

    Every other open is left undefined: a union's value is
    ``sh.restrict(top, u, s_top)``, which ``Sheaf.restriction`` computes
    by taking each part along one chain into the product of the parts'
    stalks, so the parts' ``make_point`` checks already cover it.
    Native ids follow the opens' size order, so the first error raised
    names the same open as a restriction to every open in turn would.
    """
    top = sh.topology.full
    if s_top.space != sh.stalk(top.id):
        raise SpaceMismatch("section does not lie in the stalk over X")
    a = Assignment(sh)
    values = a.values
    for oid in sh.native_ids():
        if oid != top.id:
            coords = sh.restrict_coords(top.id, oid, s_top.coords)
            values[oid] = sp.make_point(sh.stalk(oid), coords)
    values[top.id] = s_top
    return a
