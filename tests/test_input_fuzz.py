"""Fuzzing of the input boundary: mutated sheaf specs and assignment
CSVs run through ``sheafctl``.  Whatever the input, a run ends with an
exit code in 0-3, never a traceback, and a failing run says why on one
``input error:`` (exit 2) or ``error:`` (exit 1) line.  A spec whose
last mutation renamed an entry to a name outside its entities exits 2."""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheaffuse import scenarios
from sheaffuse.cli import main
from sheaffuse.specio import save_assignment, sheaf_to_spec

SAR_TOP = "s+t+theta1+theta2+vx+vy+x+y+z"
FAST_FUSE = ["--max-iter", "20"]


def _specs():
    """The exported scenario specs, as ``sheafctl scenario --export``
    writes them, by file stem."""
    sar = scenarios.build_sar_sheaf()
    t = sar.topology
    specs = {"sar_spec": sheaf_to_spec(
        sar, subbase_keys=[t.open_for(v).key()
                           for v in scenarios.SAR_SUBBASE.values()],
        weights=scenarios.SarParameters().weights.as_dict(),
        lift_ranges=scenarios.sar_lift_ranges())}
    mosaic, prob = scenarios.build_obstacle_sheaves()
    specs["obstacle_mosaic"] = sheaf_to_spec(mosaic)
    specs["obstacle_probability"] = sheaf_to_spec(prob)
    for variant in ("mosaic", "counts", "value"):
        specs[f"coins_{variant}"] = sheaf_to_spec(
            scenarios.build_coin_sheaf(variant))
    return specs


SPECS = {name: json.dumps(spec) for name, spec in _specs().items()}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    sar = scenarios.build_sar_sheaf()
    case1 = tmp / "sar_case1.csv"
    save_assignment(case1, scenarios.sar_case_assignment(sar, 1))
    (tmp / "sar_spec.json").write_text(SPECS["sar_spec"])
    return tmp, case1.read_text()


def _paths(node, path=()):
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _cosingletons(data, k):
    """The spec with its subbase replaced by k sets that each miss one
    entity, its entity list padded with fresh names to at least k: 2^k
    intersections, past the open-set cap from k = 13 on."""
    names = data.get("entities")
    names = list(names) if isinstance(names, list) else []
    names += [f"pad{i}" for i in range(k - len(names))]
    return dict(data, entities=names,
                subbase=[[n for n in names if n != names[i]]
                         for i in range(k)])


def _rename(data, number):
    """Rename one stalk key, or one restriction's "from" or "to", picked
    by ``number``, to a name outside the entities; False when the spec
    has no such entry to rename."""
    if not isinstance(data, dict):
        return False
    entities = data.get("entities")
    name = "outside"
    while isinstance(entities, list) and name in entities:
        name += "_"
    stalks = data.get("stalks")
    keys = list(stalks) if isinstance(stalks, dict) else []
    entries = data.get("restrictions")
    ends = [(entry, end) for entry in
            (entries if isinstance(entries, list) else [])
            if isinstance(entry, dict) for end in ("from", "to")]
    if not keys + ends:
        return False
    number %= len(keys) + len(ends)
    if number < len(keys):
        stalks[name] = stalks.pop(keys[number])
    else:
        entry, end = ends[number - len(keys)]
        entry[end] = name
    return True


def _mutate(data, mutations):
    """Apply (path number, op, value) mutations in turn; a path number
    picks one node of the current tree, counted in ``_paths`` order,
    except for "cosingletons", where it picks k in 0-30, and "rename",
    where it picks the entry to rename.  Returns the spec and whether
    the last mutation renamed an entry."""
    renamed = False
    for number, op, value in mutations:
        renamed = False
        if op == "cosingletons":
            if isinstance(data, dict):
                data = _cosingletons(data, number % 31)
            continue
        if op == "rename":
            renamed = _rename(data, number)
            continue
        paths = list(_paths(data))
        path = paths[number % len(paths)]
        if not path:
            data = value if op == "replace" else data
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if op == "delete":
            del parent[key]
        elif op == "replace":
            parent[key] = value
        elif isinstance(parent, list):  # "duplicate"
            parent.insert(key, parent[key])
    return data, renamed


def _run(argv):
    """``main(argv)`` with its output captured: the exit code checked
    against what it printed on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    if err:
        prefix = "input error:" if code == 2 else "error:"
        assert code in (1, 2) and err.startswith(prefix) \
            and err.count("\n") == 1, (code, err)
    else:
        assert code != 2
    return code, err


numbers = st.one_of(
    st.integers(-3, 20), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e400, -1e400, 1e308, 0.5, -0.0]))
words = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["product", "euclidean", "circle", "geo3d", "time",
                     "simplex", "discrete", "identity", "projection",
                     "linear", "affine", "builtin", "V1", "t+theta1",
                     SAR_TOP, "dead_reckon_state"]))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, words),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(words, inner, max_size=3)),
    max_leaves=6)
spec_mutations = st.lists(
    st.tuples(st.integers(0, 10**6),
              st.sampled_from(["replace", "delete", "duplicate",
                               "cosingletons", "rename"]),
              json_values),
    min_size=1, max_size=3)

# the three mutations that once ended in a traceback: a projection index
# read as inf, a SAR whole-space stalk missing a component its builtins
# read, and a builtin parameter that is not a number
FINDINGS = {
    "projection_index_inf": (
        "obstacle_mosaic",
        lambda d: d["restrictions"][0]["indices"].__setitem__(0, 1e400)),
    "sar_top_component_deleted": (
        "sar_spec",
        lambda d: d["stalks"][SAR_TOP]["components"].pop(2)),
    "builtin_param_object": (
        "sar_spec",
        lambda d: d["restrictions"][4]["params"].update(
            sensor_lon_w={"a": 1})),
}


@pytest.mark.parametrize("finding", FINDINGS)
@pytest.mark.parametrize("command", ["check", "radius", "fuse"])
def test_fuzz_findings_exit_2(files, finding, command):
    tmp, case1 = files
    name, mutate = FINDINGS[finding]
    data = json.loads(SPECS[name])
    mutate(data)
    spec = tmp / "finding.json"
    spec.write_text(json.dumps(data))
    argv = [command, str(spec)]
    if command != "check":
        argv.append(str(tmp / "sar_case1.csv"))
    code, err = _run(argv)
    assert code == 2 and err.startswith("input error:")


def test_overflowing_observation_exits_1(files):
    """A finite reading whose distance overflows, found by the CSV fuzz:
    fusion stops with one error line rather than searching from inf."""
    tmp, case1 = files
    path = tmp / "overflow.csv"
    path.write_text(case1.replace("t+theta1,77.099999999999994,"
                                  "0.94299999999999995",
                                  "t+theta1,77.099999999999994,1e308"))
    code, err = _run(["fuse", str(tmp / "sar_spec.json"), str(path)])
    assert code == 1 and "overflows" in err


# each command with its options; radius and fuse read SAR case 1, so on
# the other specs they fall back to the first command, check
SPEC_COMMANDS = [
    ["check", "--samples", "4"],
    ["radius"],
    ["fuse", *FAST_FUSE],
    ["cohomology"],
    ["cohomology", "--lift-bins", "1", "--max-degree", "1"],
    ["leray"],
]


@settings(derandomize=True, deadline=None, max_examples=400,
          database=None)
@given(name=st.sampled_from(sorted(SPECS)), mutations=spec_mutations,
       command=st.sampled_from(SPEC_COMMANDS))
def test_mutated_spec_never_raises(files, name, mutations, command):
    tmp, _ = files
    data, renamed = _mutate(json.loads(SPECS[name]), mutations)
    spec = tmp / "spec.json"
    spec.write_text(json.dumps(data))
    verb, *options = command
    if verb in ("radius", "fuse"):
        if name == "sar_spec":
            options.insert(0, str(tmp / "sar_case1.csv"))
        else:
            verb, *options = SPEC_COMMANDS[0]
    code, _ = _run([verb, str(spec), *options])
    assert code == 2 or not renamed


cells = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "1e308", "x",
                     "0", "-1", "360", "t", "t+theta1", "x+y+z", "s",
                     "open_set", SAR_TOP, "theta1+t", "+"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=5))
csv_mutations = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
              st.sampled_from(["replace", "delete_cell", "delete_row",
                               "duplicate_row", "append_cell"]),
              cells),
    min_size=1, max_size=3)


@settings(derandomize=True, deadline=None, max_examples=150,
          database=None)
@given(mutations=csv_mutations, command=st.sampled_from(["radius", "fuse"]))
def test_mutated_assignment_never_raises(files, mutations, command):
    tmp, case1 = files
    rows = list(csv.reader(io.StringIO(case1)))
    for r, c, op, cell in mutations:
        if not rows:
            rows.append([cell])
            continue
        row = rows[r % len(rows)]
        if op == "delete_row":
            rows.remove(row)
        elif op == "duplicate_row":
            rows.insert(r % len(rows), list(row))
        elif op == "append_cell":
            row.append(cell)
        elif row:
            if op == "replace":
                row[c % len(row)] = cell
            else:
                del row[c % len(row)]
    path = tmp / "assignment.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    argv = [command, str(tmp / "sar_spec.json"), str(path)]
    _run(argv + (FAST_FUSE if command == "fuse" else []))
