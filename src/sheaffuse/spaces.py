"""Pseudometric value spaces and their points.

Every observation lives in a ValueSpace with a uniform coordinate
representation (a flat tuple of floats), so metrics, samplers and the
optimizer never special-case the space kind.  Product spaces are
flattened and use the max of weighted component distances, matching the
sup form of the assignment pseudometric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from . import _kernels as K
from .errors import SpaceMismatch

SIMPLEX_TOL = 1e-9

EUCLIDEAN = "euclidean"
CIRCLE = "circle"
GEO2D = "geo2d"
GEO3D = "geo3d"
TIME = "time"
DISCRETE = "discrete"
SIMPLEX = "simplex"
PRODUCT = "product"

# kinds whose points form a real vector space under coordinate arithmetic
_LINEAR_KINDS = {EUCLIDEAN, TIME, SIMPLEX}


@dataclass(frozen=True)
class ValueSpace:
    kind: str
    dim: int
    weight: float = 1.0
    labels: tuple[str, ...] = ()
    components: tuple["ValueSpace", ...] = ()

    @cached_property
    def circular_mask(self) -> tuple[bool, ...]:
        """Per coordinate, whether it is an angle in degrees."""
        if self.kind == CIRCLE:
            return (True,)
        if self.kind == PRODUCT:
            return tuple(
                flag for c in self.components for flag in c.circular_mask
            )
        return (False,) * self.dim

    @cached_property
    def has_simplex(self) -> bool:
        """Whether the space or one of its factors is a simplex."""
        return self.kind == SIMPLEX or any(
            c.has_simplex for c in self.components)

    @property
    def is_linear(self) -> bool:
        """Whether coordinates carry a vector-space structure."""
        if self.kind == PRODUCT:
            return all(c.is_linear for c in self.components)
        return self.kind in _LINEAR_KINDS

    def describe(self) -> str:
        if self.kind == PRODUCT:
            return " x ".join(c.describe() for c in self.components)
        w = "" if self.weight == 1.0 else f"*{self.weight:g}"
        if self.kind == EUCLIDEAN:
            return f"R^{self.dim}{w}"
        return f"{self.kind}{w}"


def euclidean(dim: int, weight: float = 1.0) -> ValueSpace:
    if dim < 0:
        raise ValueError(f"euclidean space needs dim >= 0, got {dim}")
    return ValueSpace(EUCLIDEAN, dim, weight)


def circle(weight: float = 1.0) -> ValueSpace:
    """Angles in degrees on [0, 360), compared along the shortest arc."""
    return ValueSpace(CIRCLE, 1, weight)


def geo2d(weight: float = 1.0) -> ValueSpace:
    """(west longitude deg, latitude deg) under the haversine metric, km."""
    return ValueSpace(GEO2D, 2, weight)


def geo3d(weight: float = 1.0) -> ValueSpace:
    """(west longitude deg, latitude deg, altitude m); ground distance and
    altitude difference combine in quadrature, in km."""
    return ValueSpace(GEO3D, 3, weight)


def time_line(weight: float = 1.0) -> ValueSpace:
    return ValueSpace(TIME, 1, weight)


def discrete(labels, weight: float = 1.0) -> ValueSpace:
    labels = tuple(labels)
    if not labels:
        raise ValueError("discrete space needs at least one label")
    return ValueSpace(DISCRETE, 1, weight, labels=labels)


def simplex(bins: int, weight: float = 1.0) -> ValueSpace:
    if bins < 1:
        raise ValueError("simplex needs at least one bin")
    return ValueSpace(SIMPLEX, bins, weight)


def product(spaces) -> ValueSpace:
    """Flattened product; the metric is the max of component distances."""
    spaces = tuple(spaces)
    if not spaces:
        raise ValueError("product of no spaces")
    if len(spaces) == 1:
        return spaces[0]
    flat: list[ValueSpace] = []
    for s in spaces:
        flat.extend(s.components if s.kind == PRODUCT else (s,))
    return ValueSpace(PRODUCT, sum(s.dim for s in flat),
                      components=tuple(flat))


@dataclass(frozen=True)
class Point:
    coords: tuple[float, ...]
    space: ValueSpace = field(repr=False)

    def __repr__(self) -> str:
        vals = ", ".join(f"{c:g}" for c in self.coords)
        return f"Point({vals})"


def make_point(space: ValueSpace, coords) -> Point:
    """Validate and normalize coordinates for a space.

    Coordinates must be finite.  Circular coordinates are wrapped to
    [0, 360); simplex coordinates must be nonnegative and sum to 1
    within tolerance.
    """
    vals = [float(c) for c in coords]
    _check_dim(space, vals)
    if not all(map(math.isfinite, vals)):
        raise SpaceMismatch(
            f"coordinates for {space.describe()} must be finite, got "
            f"{tuple(vals)}"
        )
    mask = space.circular_mask
    vals = [K.wrap_deg(v) if m else v for v, m in zip(vals, mask)]
    _check_simplexes(space, vals)
    return Point(tuple(vals), space)


def check_coords(space: ValueSpace, coords) -> None:
    """Raise ``SpaceMismatch`` unless ``coords`` has ``space.dim`` entries
    and its simplex factors lie on their simplexes; the shape checks of
    ``make_point`` on coordinates a restriction map produced."""
    _check_dim(space, coords)
    if space.has_simplex:
        _check_simplexes(space, coords)


def _check_dim(space: ValueSpace, vals) -> None:
    if len(vals) != space.dim:
        raise SpaceMismatch(
            f"expected {space.dim} coordinates for {space.describe()}, "
            f"got {len(vals)}"
        )


def _check_simplexes(space: ValueSpace, vals, offset: int = 0) -> int:
    if space.kind == SIMPLEX:
        chunk = vals[offset:offset + space.dim]
        if min(chunk) < -SIMPLEX_TOL:
            raise SpaceMismatch("simplex coordinates must be nonnegative")
        if abs(sum(chunk) - 1.0) > SIMPLEX_TOL:
            raise SpaceMismatch("simplex coordinates must sum to 1")
        return offset + space.dim
    if space.kind == PRODUCT:
        for c in space.components:
            offset = _check_simplexes(c, vals, offset)
        return offset
    return offset + space.dim


def distance(space: ValueSpace, x: Point, y: Point) -> float:
    """Weighted pseudometric distance between two points of a space."""
    if x.space != space or y.space != space:
        raise SpaceMismatch("points do not belong to the given space")
    return coord_distance(space, x.coords, y.coords)


def coord_distance(space: ValueSpace, a, b) -> float:
    """``distance`` on bare coordinate tuples, which the caller vouches
    lie in ``space``; the inner loops of the radius and fusion use it."""
    return _dist(space, a, b, 0)


def _dist(space: ValueSpace, a, b, off: int) -> float:
    kind = space.kind
    if kind == PRODUCT:
        best = 0.0
        for c in space.components:
            d = _dist(c, a, b, off)
            if d > best:
                best = d
            off += c.dim
        return best
    if kind == EUCLIDEAN:
        s = 0.0
        for i in range(off, off + space.dim):
            diff = a[i] - b[i]
            s += diff * diff
        return space.weight * math.sqrt(s)
    if kind == CIRCLE:
        return space.weight * K.circle_dist_deg(a[off], b[off])
    if kind == TIME:
        return space.weight * abs(a[off] - b[off])
    if kind == GEO2D:
        return space.weight * K.haversine_km(a[off], a[off + 1],
                                             b[off], b[off + 1])
    if kind == GEO3D:
        ground = K.haversine_km(a[off], a[off + 1], b[off], b[off + 1])
        dalt = (a[off + 2] - b[off + 2]) / 1000.0
        return space.weight * math.hypot(ground, dalt)
    if kind == DISCRETE:
        return 0.0 if a[off] == b[off] else space.weight
    if kind == SIMPLEX:
        s = 0.0
        for i in range(off, off + space.dim):
            s += abs(a[i] - b[i])
        return space.weight * 0.5 * s
    raise SpaceMismatch(f"unknown space kind {kind!r}")


def sample_point(space: ValueSpace, rng) -> Point:
    """Draw a random point, used by the axiom checkers."""
    return make_point(space, _sample(space, rng))


def _sample(space: ValueSpace, rng) -> list[float]:
    kind = space.kind
    if kind == PRODUCT:
        out: list[float] = []
        for c in space.components:
            out.extend(_sample(c, rng))
        return out
    if kind == EUCLIDEAN:
        return [rng.gauss(0.0, 10.0) for _ in range(space.dim)]
    if kind == CIRCLE:
        return [rng.uniform(0.0, 360.0)]
    if kind == TIME:
        return [rng.uniform(-10.0, 10.0)]
    if kind == GEO2D:
        return [rng.uniform(0.0, 359.0), rng.uniform(-85.0, 85.0)]
    if kind == GEO3D:
        return [rng.uniform(0.0, 359.0), rng.uniform(-85.0, 85.0),
                rng.uniform(0.0, 20000.0)]
    if kind == DISCRETE:
        return [float(rng.randrange(len(space.labels)))]
    if kind == SIMPLEX:
        raw = [rng.expovariate(1.0) for _ in range(space.dim)]
        total = sum(raw) or 1.0
        return [r / total for r in raw]
    raise SpaceMismatch(f"unknown space kind {kind!r}")
