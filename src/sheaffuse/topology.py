"""Finite topologies on named entity sets.

Open sets are bitsets over a fixed entity universe.  A topology is
built from any family of sets: its basis is the family closed under
pairwise intersection, and its opens the basis closed under arbitrary
union.  Each closure takes one pass per set, and each stops with
TopologyTooLarge once it holds more than ``OPEN_CAP`` masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import TopologyTooLarge, UnknownEntity

MAX_ENTITIES = 64
OPEN_CAP = 4096


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
    """The smallest topology in which the given sets are open.

    Its basis is their closure under pairwise intersection, without the
    empty set; its opens are every union of basis sets, plus the empty
    set and the whole universe, sorted by size and then bit pattern so
    that ids are reproducible.  Raises TopologyTooLarge instead of
    truncating when either closure would hold more than ``OPEN_CAP``
    masks.
    """

    def __init__(self, universe: EntityUniverse, sets: Iterable[int]):
        self.universe = universe
        full = (1 << len(universe)) - 1
        closed: set[int] = set()
        for s in set(sets):  # the intersections of the sets passed so far
            closed = _capped(closed | {s & c for c in closed} | {s})
        basis = sorted(closed - {0}, key=lambda m: (m.bit_count(), m))
        masks = {0, full}
        for b in basis:  # the unions of the basis opens passed so far
            if b not in masks:  # one in masks is a union already
                masks = _capped(masks | {m | b for m in masks})
        ordered = sorted(masks, key=lambda m: (m.bit_count(), m))
        self.opens = tuple(
            OpenSet(m, i, universe) for i, m in enumerate(ordered)
        )
        self._by_mask = {o.mask: o for o in self.opens}
        self.empty = self._by_mask[0]
        self.full = self._by_mask[full]
        self.basis = tuple(self._by_mask[m] for m in basis)

    def __len__(self) -> int:
        return len(self.opens)

    def open_for(self, entities: Iterable[str]) -> OpenSet:
        """Look up the open set with exactly these members; KeyError
        naming the first unknown entity, or the set when it is not
        open."""
        try:
            mask = self.universe.mask_of(entities)
        except UnknownEntity as exc:
            raise KeyError(str(exc)) from None
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


def _capped(masks: set[int]) -> set[int]:
    if len(masks) > OPEN_CAP:
        raise TopologyTooLarge(f"open-set count exceeded cap of {OPEN_CAP}")
    return masks


def generate_topology(universe: EntityUniverse,
                      subbase: Iterable[Iterable[str]]) -> Topology:
    """Smallest topology containing the subbase, given as sets of
    entity names."""
    return Topology(universe, [universe.mask_of(names) for names in subbase])
