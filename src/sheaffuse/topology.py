"""Finite topologies on named entity sets.

Open sets are bitsets over a fixed entity universe.  A topology is
generated from a subbase by closing under pairwise intersection (the
basis) and then under arbitrary union, with an explicit cap on the
number of opens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import TopologyTooLarge, UnknownEntity

MAX_ENTITIES = 64
DEFAULT_OPEN_CAP = 4096


class EntityUniverse:
    """Ordered collection of unique entity names."""

    def __init__(self, entities: Sequence[str]):
        names = tuple(entities)
        if not all(isinstance(n, str) and n for n in names):
            raise UnknownEntity("entity names must be non-empty strings")
        if len(set(names)) != len(names):
            raise UnknownEntity("entity names must be unique")
        if len(names) > MAX_ENTITIES:
            raise TopologyTooLarge(f"at most {MAX_ENTITIES} entities supported")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, EntityUniverse) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def mask_of(self, entities: Iterable[str]) -> int:
        mask = 0
        for name in entities:
            try:
                mask |= 1 << self.index[name]
            except KeyError:
                raise UnknownEntity(f"unknown entity {name!r}") from None
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(n for i, n in enumerate(self.names) if mask >> i & 1)

    def __repr__(self) -> str:
        return f"EntityUniverse({list(self.names)})"


@dataclass(frozen=True)
class OpenSet:
    """One open set: a bitset plus its dense handle within a topology."""

    mask: int
    id: int
    universe: EntityUniverse = field(repr=False, compare=False)

    @property
    def members(self) -> tuple[str, ...]:
        return self.universe.names_of(self.mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def key(self) -> str:
        """Canonical name: sorted members joined by '+' (empty set: '0')."""
        return "+".join(sorted(self.members)) if self.mask else "0"

    def __repr__(self) -> str:
        return "{" + ",".join(self.members) + "}"


class Topology:
    """A finite topology: canonical opens, basis, and the inclusion order."""

    def __init__(self, universe: EntityUniverse, open_masks: Iterable[int],
                 basis_masks: Iterable[int]):
        self.universe = universe
        full = (1 << len(universe)) - 1
        masks = set(open_masks) | {0, full}
        # canonical order: by size then bit pattern, so ids are reproducible
        ordered = sorted(masks, key=lambda m: (m.bit_count(), m))
        self.opens = tuple(
            OpenSet(m, i, universe) for i, m in enumerate(ordered)
        )
        self._by_mask = {o.mask: o for o in self.opens}
        self.empty = self._by_mask[0]
        self.full = self._by_mask[full]
        self.basis = tuple(
            self._by_mask[m] for m in sorted(set(basis_masks) - {0},
                                             key=lambda m: (m.bit_count(), m))
        )

    def __len__(self) -> int:
        return len(self.opens)

    def open_for(self, entities: Iterable[str]) -> OpenSet:
        """Look up the open set with exactly these members."""
        mask = self.universe.mask_of(entities)
        try:
            return self._by_mask[mask]
        except KeyError:
            raise UnknownOpenSet(mask, self.universe) from None

    def find(self, mask: int) -> OpenSet | None:
        return self._by_mask.get(mask)


class UnknownOpenSet(KeyError):
    def __init__(self, mask: int, universe: EntityUniverse):
        super().__init__(
            f"{{{','.join(universe.names_of(mask))}}} is not an open set"
        )


def _intersection_closure(masks: set[int]) -> set[int]:
    closed = set(masks)
    frontier = list(closed)
    while frontier:
        new = set()
        for m in frontier:
            for other in closed:
                inter = m & other
                if inter not in closed and inter not in new:
                    new.add(inter)
        closed |= new
        frontier = list(new)
    return closed


def generate_topology(universe: EntityUniverse,
                      subbase: Iterable[Iterable[str]],
                      open_cap: int = DEFAULT_OPEN_CAP) -> Topology:
    """Smallest topology containing the subbase.

    The basis is the closure of the subbase under pairwise intersection;
    opens are all unions of basis sets plus the empty set and the whole
    universe.  Raises TopologyTooLarge instead of truncating when more
    than ``open_cap`` opens would be produced.
    """
    sub_masks = {universe.mask_of(s) for s in subbase}
    basis = _intersection_closure(sub_masks) - {0}
    full = (1 << len(universe)) - 1
    opens: set[int] = {0, full}
    frontier = [0]
    while frontier:
        m = frontier.pop()
        for b in basis:
            u = m | b
            if u not in opens:
                if len(opens) >= open_cap:
                    raise TopologyTooLarge(
                        f"open-set count exceeded cap of {open_cap}"
                    )
                opens.add(u)
                frontier.append(u)
    return Topology(universe, opens, basis)


def comparable_pairs(t: Topology) -> list[tuple[OpenSet, OpenSet]]:
    """All ordered pairs (smaller, larger) of nonempty opens with V strictly
    inside U, by the larger open's id and then the smaller's."""
    nonempty = t.opens[1:]   # the empty open sorts first
    return [(v, u) for u in nonempty for v in nonempty
            if v.mask != u.mask and v.mask & u.mask == v.mask]


@dataclass
class TopologyReport:
    """Outcome of the closure-axiom check: every violation with a witness."""

    ok: bool
    violations: list[str]

    def __str__(self) -> str:
        if self.ok:
            return "topology axioms: ok"
        return "topology axioms violated:\n" + "\n".join(
            f"  - {v}" for v in self.violations
        )


def verify_topology(universe: EntityUniverse,
                    opens: Iterable[Iterable[str]]) -> TopologyReport:
    """Diagnostic check that a family of sets is a topology on the universe.

    For finite families, closure under pairwise union/intersection is
    equivalent to the arbitrary-union and finite-intersection axioms.
    """
    masks = [universe.mask_of(s) for s in opens]
    family = set(masks)
    full = (1 << len(universe)) - 1
    violations = []

    def render(mask: int) -> str:
        return "{" + ",".join(universe.names_of(mask)) + "}"

    if full not in family:
        violations.append(f"whole set {render(full)} missing")
    if 0 not in family:
        violations.append("empty set missing")
    ordered = sorted(family)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a | b not in family:
                violations.append(
                    f"union {render(a | b)} = {render(a)} ∪ {render(b)} missing"
                )
            if a & b not in family:
                violations.append(
                    f"intersection {render(a & b)} = {render(a)} ∩ {render(b)} missing"
                )
    return TopologyReport(ok=not violations, violations=violations)
