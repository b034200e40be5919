"""Pseudometric value spaces and their points.

Every observation lives in a ValueSpace with a uniform coordinate
representation (a flat tuple of floats), so metrics, samplers and the
optimizer never special-case the space kind.  Products are flat (no
component is a product) and ``ValueSpace.factors`` gives their layout;
the distance is the max of weighted factor distances, matching the sup
form of the assignment pseudometric.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

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
    def factors(self) -> tuple[tuple["ValueSpace", int, int], ...]:
        """Each factor with the slice ``lo:hi`` of coordinates it holds: a
        product's components in order, else the space itself."""
        if self.kind != PRODUCT:
            return ((self, 0, self.dim),)
        ends = list(accumulate((c.dim for c in self.components), initial=0))
        return tuple(zip(self.components, ends, ends[1:]))

    @cached_property
    def circular_mask(self) -> tuple[bool, ...]:
        """Per coordinate, whether it is an angle in degrees."""
        return tuple(c.kind == CIRCLE for c, lo, hi in self.factors
                     for _ in range(lo, hi))

    @cached_property
    def has_circle(self) -> bool:
        """Whether the space or one of its factors is a circle."""
        return any(self.circular_mask)

    @cached_property
    def has_simplex(self) -> bool:
        """Whether the space or one of its factors is a simplex."""
        return any(c.kind == SIMPLEX for c, _, _ in self.factors)

    @cached_property
    def metrics(self) -> tuple[tuple[Callable, int], ...]:
        """Each factor's weighted distance as ``(fn, lo)``, compiled once:
        ``fn(a, b, lo)`` on bare coordinate tuples whose factor starts at
        ``lo``."""
        return tuple((_metric(c), lo) for c, lo, _ in self.factors)

    @property
    def is_linear(self) -> bool:
        """Whether coordinates carry a vector-space structure."""
        return all(c.kind in _LINEAR_KINDS for c, _, _ in self.factors)

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
    """Validate and normalize coordinates for a space, as
    ``normalize_coords`` does."""
    return Point(normalize_coords(space, coords), space)


def normalize_coords(space: ValueSpace, coords) -> tuple[float, ...]:
    """Coordinates for a space as a tuple of floats.

    There must be ``space.dim`` of them, all finite.  Circular
    coordinates are wrapped to [0, 360); simplex coordinates must be
    nonnegative and sum to 1 within tolerance.
    """
    vals = [float(c) for c in coords]
    _check_dim(space, vals)
    if not all(map(math.isfinite, vals)):
        raise SpaceMismatch(
            f"coordinates for {space.describe()} must be finite, got "
            f"{tuple(vals)}"
        )
    if space.has_circle:
        vals = [K.wrap_deg(v) if m else v
                for v, m in zip(vals, space.circular_mask)]
    if space.has_simplex:
        _check_simplexes(space, vals)
    return tuple(vals)


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


def _check_simplexes(space: ValueSpace, vals) -> None:
    for c, lo, hi in space.factors:
        if c.kind == SIMPLEX:
            chunk = vals[lo:hi]
            if min(chunk) < -SIMPLEX_TOL:
                raise SpaceMismatch("simplex coordinates must be nonnegative")
            if abs(sum(chunk) - 1.0) > SIMPLEX_TOL:
                raise SpaceMismatch("simplex coordinates must sum to 1")


def coord_distance(space: ValueSpace, a, b) -> float:
    """The weighted pseudometric distance between bare coordinate
    tuples, which the caller vouches lie in ``space``; the inner loops
    of the radius and fusion use it.
    NaN when any factor's distance is, else the largest, at least 0.0
    (a factor weighted -0.0 gives 0.0)."""
    ds = factor_distances(space, a, b)
    return math.nan if any(map(math.isnan, ds)) else max([0.0, *ds])


def factor_distances(space: ValueSpace, a, b) -> list[float]:
    """The weighted distance on each factor of ``space`` between bare
    coordinate tuples; ``coord_distance`` is their largest."""
    return [fn(a, b, lo) for fn, lo in space.metrics]


def _metric(space: ValueSpace) -> Callable:
    """The weighted distance on one factor as ``fn(a, b, off)``, its
    coordinates starting at ``off``; for an unknown kind, one that
    raises ``SpaceMismatch``."""
    kind, dim, w = space.kind, space.dim, space.weight
    if kind == EUCLIDEAN:
        def fn(a, b, off):
            s = 0.0
            for i in range(off, off + dim):
                diff = a[i] - b[i]
                s += diff * diff
            return w * math.sqrt(s)
    elif kind == CIRCLE:
        def fn(a, b, off):
            return w * K.circle_dist_deg(a[off], b[off])
    elif kind == TIME:
        def fn(a, b, off):
            return w * abs(a[off] - b[off])
    elif kind == GEO2D:
        def fn(a, b, off):
            return w * K.haversine_km(a[off], a[off + 1], b[off], b[off + 1])
    elif kind == GEO3D:
        def fn(a, b, off):
            ground = K.haversine_km(a[off], a[off + 1], b[off], b[off + 1])
            dalt = (a[off + 2] - b[off + 2]) / 1000.0
            return w * math.hypot(ground, dalt)
    elif kind == DISCRETE:
        def fn(a, b, off):
            return 0.0 if a[off] == b[off] else w
    elif kind == SIMPLEX:
        def fn(a, b, off):
            s = 0.0
            for i in range(off, off + dim):
                s += abs(a[i] - b[i])
            return w * 0.5 * s
    else:
        def fn(a, b, off):
            raise SpaceMismatch(f"unknown space kind {kind!r}")
    return fn


def sample_point(space: ValueSpace, rng) -> Point:
    """Draw a random point, used by the axiom checkers."""
    return make_point(space, [v for c, _, _ in space.factors
                              for v in _sample(c, rng)])


def _sample(space: ValueSpace, rng) -> list[float]:
    kind = space.kind
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
