import functools
import operator
import random

import pytest

from conftest import random_subbase
from oracles import axiom_violations, fixpoint_closure
from sheaffuse import EntityUniverse, generate_topology, topology
from sheaffuse.errors import TopologyTooLarge, UnknownEntity
from sheaffuse.topology import OPEN_CAP, Topology


def masks(t):
    return {o.mask for o in t.opens}


def test_empty_subbase_gives_indiscrete_topology():
    u = EntityUniverse(["a", "b"])
    t = generate_topology(u, [])
    assert masks(t) == {0, 0b11}


def test_duplicate_or_unknown_entities_rejected():
    with pytest.raises(UnknownEntity):
        EntityUniverse(["a", "a"])
    u = EntityUniverse(["a", "b"])
    with pytest.raises(UnknownEntity):
        generate_topology(u, [("a", "zz")])


def cosingletons(names, k):
    """The first k sets that each hold every name but one."""
    return [[n for n in names if n != names[i]] for i in range(k)]


def test_cap_raises_instead_of_truncating():
    """n singletons generate all 2^n subsets: 12 reach the cap exactly,
    13 pass it.  k co-singletons of 13 entities intersect to every set
    missing some of the first k: 2^k - 1 basis opens, plus the whole
    and the empty set.  At k = 12 that is 4,097 opens, one past the
    cap, so the union pass raises; at k = 13 the intersections alone,
    8,191 masks, pass the cap, so the intersection pass raises."""
    names = [f"e{i}" for i in range(13)]
    singletons = [(n,) for n in names]
    t = generate_topology(EntityUniverse(names[:12]), singletons[:12])
    assert len(t) == OPEN_CAP == 2 ** 12
    with pytest.raises(TopologyTooLarge):
        generate_topology(EntityUniverse(names), singletons)
    universe = EntityUniverse(names)
    t = generate_topology(universe, cosingletons(names, 11))
    assert len(t) == 2 ** 11 + 1 and len(t.basis) == 2 ** 11 - 1
    for k in (12, 13):
        with pytest.raises(TopologyTooLarge,
                           match=f"exceeded cap of {OPEN_CAP}$"):
            generate_topology(universe, cosingletons(names, k))


def test_sensor_style_generation_produces_intersections_and_unions():
    u = EntityUniverse(["x", "y", "z", "vx", "vy", "t", "th1", "th2", "s"])
    t = generate_topology(u, [
        ("x", "y", "z"), ("x", "y", "z", "vx", "vy"), ("th1", "t"),
        ("th2", "t"), ("th1", "th2", "s"), tuple(u.names),
    ])
    for expect in [("t",), ("th1",), ("th2",), ("th1", "th2"),
                   ("th1", "th2", "s", "t")]:
        assert u.mask_of(expect) in masks(t)


def by_size(masks):
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def intersections(opens, sets):
    """The opens that are the intersection of every given set containing
    them: the closure of ``sets`` under intersection, whose nonempty
    members are the basis."""
    out = set()
    for m in opens:
        above = [s for s in sets if s & m == m]
        if above and m == functools.reduce(operator.and_, above):
            out.add(m)
    return out


def test_generation_matches_fixpoint_closure_oracle():
    """Opens, their ids and the basis, on random subbases of up to 9
    entities and 7 sets."""
    rng = random.Random(7)
    for _ in range(300):
        universe, subbase = random_subbase(rng, rng.randint(1, 9),
                                           rng.randint(0, 7))
        t = generate_topology(universe, subbase)
        full = (1 << len(universe)) - 1
        sets = {universe.mask_of(s) for s in subbase}
        expected = fixpoint_closure(sets, full)
        assert [(o.mask, o.id) for o in t.opens] == \
            list(zip(by_size(expected), range(len(expected))))
        assert [b.mask for b in t.basis] == \
            by_size(intersections(expected, sets) - {0})
        assert all(t.opens[b.id] is b for b in t.basis)


def test_topology_closes_a_family_that_is_not_intersection_closed():
    """``Topology`` given masks builds the smallest topology holding
    them, which passes the direct axiom check: random families of up to
    9 entities, over a hundred of them missing some intersection, gain
    it as a basis open."""
    rng = random.Random(31)
    not_closed = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        universe = EntityUniverse([f"e{i}" for i in range(n)])
        sets = {rng.randrange(1 << n) for _ in range(rng.randint(0, 7))}
        full = (1 << n) - 1
        expected = fixpoint_closure(sets, full)
        t = Topology(universe, sets)
        assert [(o.mask, o.id) for o in t.opens] == \
            list(zip(by_size(expected), range(len(expected))))
        assert [b.mask for b in t.basis] == \
            by_size(intersections(expected, sets) - {0})
        assert axiom_violations(masks(t), full) == 0
        not_closed += not intersections(expected, sets) - {0} <= sets
    assert not_closed > 100


def test_cap_raises_exactly_when_the_closure_passes_it(monkeypatch):
    """With the cap lowered to 16, a random subbase raises exactly when
    its oracle closure has more than 16 opens.  One whose closure under
    intersection alone has more raises in that closure's passes, one a
    distinct subbase set; the others that raise do so in a union pass,
    after all of those."""
    monkeypatch.setattr(topology, "OPEN_CAP", 16)
    passes = []
    capped = topology._capped

    def counted(masks):
        passes.append(len(masks))
        return capped(masks)

    monkeypatch.setattr(topology, "_capped", counted)
    rng = random.Random(29)
    outcomes = set()
    for _ in range(300):
        universe, subbase = random_subbase(rng, rng.randint(4, 9),
                                           rng.randint(2, 8))
        full = (1 << len(universe)) - 1
        sets = {universe.mask_of(s) for s in subbase}
        expected = fixpoint_closure(sets, full)
        outcome = (len(expected) > 16,
                   len(intersections(expected, sets)) > 16)
        outcomes.add(outcome)
        passes.clear()
        if outcome[0]:
            with pytest.raises(TopologyTooLarge,
                               match="exceeded cap of 16$"):
                generate_topology(universe, subbase)
            assert passes[-1] > 16
            assert (len(passes) <= len(sets)) == outcome[1]
        else:
            assert masks(generate_topology(universe, subbase)) == expected
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_generation_is_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        universe, subbase = random_subbase(rng, 4, 3)
        t = generate_topology(universe, subbase)
        again = generate_topology(universe,
                                  [o.members for o in t.opens if o.mask])
        assert masks(again) == masks(t)


def test_enlarging_subbase_never_removes_opens():
    rng = random.Random(13)
    for _ in range(25):
        universe, subbase = random_subbase(rng, 5, 2)
        small = generate_topology(universe, subbase)
        extra = subbase + [tuple(rng.sample(universe.names,
                                            rng.randint(1, 5)))]
        large = generate_topology(universe, extra)
        assert masks(small) <= masks(large)
