"""Serialization: JSON sheaf specs, CSV assignments and reports.

Open sets are referenced by key: the sorted entity names joined with
'+'.  Numbers are written with 17 significant digits so round trips are
bit exact.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from . import spaces as sp
from .consistency import Assignment, RadiusResult
from .errors import SheafFuseError, SpaceMismatch
from .sheaf import (
    Affine,
    Identity,
    Linear,
    Projection,
    RestrictionMap,
    Sheaf,
    complete_unions,
    resolve_builtin,
)
from .topology import EntityUniverse, generate_topology


class SpecError(SheafFuseError):
    """Malformed or unresolvable sheaf spec / assignment input."""


def fmt(value: float) -> str:
    return format(float(value), ".17g")


# -- value spaces -----------------------------------------------------------

def space_to_json(space: sp.ValueSpace) -> dict:
    if space.kind == sp.PRODUCT:
        return {"kind": "product",
                "components": [space_to_json(c) for c in space.components]}
    out = {"kind": space.kind, "weight": space.weight}
    if space.kind == sp.EUCLIDEAN:
        out["dim"] = space.dim
    elif space.kind == sp.DISCRETE:
        out["labels"] = list(space.labels)
    elif space.kind == sp.SIMPLEX:
        out["bins"] = space.dim
    return out


def _whole(data: dict, key: str) -> int:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not float(value).is_integer():
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def space_from_json(data: dict) -> sp.ValueSpace:
    try:
        kind = data["kind"]
        weight = float(data.get("weight", 1.0))
        if not 0.0 <= weight < math.inf:
            raise ValueError(f"weight must be finite and >= 0, got {weight}")
        if kind == "product":
            return sp.product([space_from_json(c) for c in data["components"]])
        if kind == sp.EUCLIDEAN:
            return sp.euclidean(_whole(data, "dim"), weight)
        if kind == sp.CIRCLE:
            return sp.circle(weight)
        if kind == sp.GEO2D:
            return sp.geo2d(weight)
        if kind == sp.GEO3D:
            return sp.geo3d(weight)
        if kind == sp.TIME:
            return sp.time_line(weight)
        if kind == sp.DISCRETE:
            if isinstance(data["labels"], str):
                raise ValueError("labels must be a list of names")
            return sp.discrete(data["labels"], weight)
        if kind == sp.SIMPLEX:
            return sp.simplex(_whole(data, "bins"), weight)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad space descriptor {data!r}: {exc}") from None
    raise SpecError(f"unknown space kind {data.get('kind')!r}")


# -- restriction bodies ------------------------------------------------------

def body_to_json(body) -> dict:
    if isinstance(body, Identity):
        return {"kind": "identity"}
    if isinstance(body, Projection):
        return {"kind": "projection", "indices": list(body.indices)}
    if isinstance(body, Linear):
        return {"kind": "linear", "matrix": body.mat.tolist()}
    if isinstance(body, Affine):
        return {"kind": "affine", "matrix": body.mat.tolist(),
                "offset": body.offset.tolist()}
    name = getattr(body, "name", None)
    if name is not None:
        return {"kind": "builtin", "name": name,
                "params": getattr(body, "params", {})}
    raise SpecError(f"cannot serialize restriction body {body!r}")


def body_from_json(data: dict):
    kind = data.get("kind")
    try:
        if kind == "identity":
            return Identity()
        if kind == "projection":
            return Projection(data["indices"])
        if kind == "linear":
            return Linear(data["matrix"])
        if kind == "affine":
            return Affine(data["matrix"], data["offset"])
        if kind == "builtin":
            from . import scenarios  # noqa: F401  (registers its builtins)

            return resolve_builtin(data["name"], data.get("params"))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad restriction body {data!r}: {exc}") from None
    raise SpecError(f"unknown restriction kind {kind!r}")


def _check_body(body, src_dim: int, dst_dim: int, where: str):
    """Reject a body that cannot map the source stalk into the target:
    a matrix not shaped (target dim, source dim), an offset not of the
    target's length, a projection index outside the source."""
    if isinstance(body, (Linear, Affine)) and \
            body.mat.shape != (dst_dim, src_dim):
        raise SpecError(f"{where}: matrix of shape {body.mat.shape}, the "
                        f"stalks need {(dst_dim, src_dim)}")
    if isinstance(body, Affine) and body.offset.shape != (dst_dim,):
        raise SpecError(f"{where}: offset of shape {body.offset.shape}, "
                        f"the target stalk needs ({dst_dim},)")
    if isinstance(body, Projection) and \
            not all(0 <= i < src_dim for i in body.indices):
        raise SpecError(f"{where}: projection indices "
                        f"{list(body.indices)} must lie in [0, {src_dim})")


# -- sheaf specs --------------------------------------------------------------

def sheaf_to_spec(sh: Sheaf, subbase_keys=None, weights: dict | None = None,
                  lift_ranges: dict | None = None) -> dict:
    t = sh.topology
    basis_keys = subbase_keys or [b.key() for b in t.basis]
    spec = {
        "entities": list(t.universe.names),
        "subbase": [key.split("+") for key in basis_keys],
        "stalks": {
            t.opens[oid].key(): space_to_json(space)
            for oid, space in sorted(sh.stalks.items()) if t.opens[oid].mask
        },
        "restrictions": [
            {"from": t.opens[src].key(), "to": t.opens[dst].key(),
             **body_to_json(rm.body)}
            for (src, dst), rm in sorted(sh.edges.items())
        ],
    }
    if weights:
        spec["weights"] = weights
    if lift_ranges:
        spec["lift_ranges"] = lift_ranges
    return spec


def sheaf_from_spec(spec: dict) -> Sheaf:
    try:
        universe = EntityUniverse(spec["entities"])
        topology = generate_topology(universe, spec["subbase"])
    except (KeyError, TypeError, SheafFuseError) as exc:
        raise SpecError(f"bad topology spec: {exc}") from None

    def resolve(key: str):
        if not isinstance(key, str):
            raise SpecError(f"open-set key {key!r} is not a string")
        names = [n for n in key.split("+") if n]
        try:
            return topology.open_for(names)
        except KeyError:
            raise SpecError(
                f"open-set key {key!r} does not resolve in the generated "
                f"topology"
            ) from None

    descriptors = spec.get("stalks", {})
    entries = spec.get("restrictions", [])
    if not isinstance(descriptors, dict):
        raise SpecError("stalks must map open-set keys to space descriptors")
    if not isinstance(entries, list) or \
            not all(isinstance(e, dict) for e in entries):
        raise SpecError("restrictions must be a list of objects")
    stalks = {}
    for key, descr in descriptors.items():
        stalks[resolve(key)] = space_from_json(descr)
    restrictions = []
    for entry in entries:
        try:
            src, dst = resolve(entry["from"]), resolve(entry["to"])
        except KeyError:
            raise SpecError(f"restriction entry missing from/to: {entry!r}")
        restrictions.append(RestrictionMap(src, dst, body_from_json(entry)))
    try:
        sh = complete_unions(Sheaf(topology, stalks, restrictions))
    except SheafFuseError as exc:
        raise SpecError(str(exc)) from None
    for (src, dst), rm in sh.edges.items():
        _check_body(rm.body, sh.stalk(src).dim, sh.stalk(dst).dim,
                    f"restriction {rm.source.key()} -> {rm.target.key()}")
    return sh


def load_sheaf(path) -> tuple[Sheaf, dict]:
    try:
        spec = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read sheaf spec {path}: {exc}") from None
    return sheaf_from_spec(spec), spec


def save_sheaf(path, sh: Sheaf, **kwargs):
    Path(path).write_text(json.dumps(sheaf_to_spec(sh, **kwargs), indent=2)
                          + "\n")


# -- assignments ---------------------------------------------------------------

def save_assignment(path, a: Assignment):
    t = a.sheaf.topology
    width = max((len(p.coords) for p in a.values.values()), default=0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["open_set"] + [f"v{i}" for i in range(width)])
        for oid in sorted(a.values):
            coords = [fmt(c) for c in a.values[oid].coords]
            writer.writerow([t.opens[oid].key()] + coords +
                            [""] * (width - len(coords)))


def load_assignment(path, sh: Sheaf) -> Assignment:
    a = Assignment(sh)
    t = sh.topology
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "open_set":
                raise SpecError(
                    f"{path}: first column of the header must be 'open_set'"
                )
            for row in reader:
                if not row or not row[0]:
                    continue
                key = row[0]
                names = [n for n in key.split("+") if n]
                try:
                    u = t.open_for(names)
                except KeyError as exc:
                    raise SpecError(f"{path}: {exc.args[0]}") from None
                except SheafFuseError as exc:
                    raise SpecError(f"{path}: open {key!r}: {exc}") from None
                coords = [float(v) for v in row[1:] if v != ""]
                space = sh.stalk(u.id)
                if len(coords) != space.dim:
                    raise SpecError(
                        f"{path}: open {key!r} expects {space.dim} values, "
                        f"row has {len(coords)}"
                    )
                try:
                    a.set(u, sp.make_point(space, coords))
                except SpaceMismatch as exc:
                    raise SpecError(f"{path}: open {key!r}: {exc}") from None
    except OSError as exc:
        raise SpecError(f"cannot read assignment {path}: {exc}") from None
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from None
    return a


def save_edge_report(path, result: RadiusResult):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["smaller", "larger", "error_km"])
        for e in result.edges:
            writer.writerow([e.smaller.key(), e.larger.key(), fmt(e.error)])
