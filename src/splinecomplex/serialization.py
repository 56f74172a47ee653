"""JSON formats for meshes, geometries, patch sets and problem files.

Rationals serialize as strings like ``"1/4"``; knot vectors use the text
form ``p; b/q:m ...``.  Problem files are schema-validated before any
computation, and a key that the file's command does not read is rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction

import jsonschema
import numpy as np

from .bspline import KnotVector
from .geometry import GeometryMap
from .multipatch import Interface
from .tmesh import RawTMesh, TMeshError

__all__ = [
    "rational_to_str",
    "tmesh_to_dict",
    "tmesh_from_dict",
    "geometry_to_dict",
    "geometry_from_dict",
    "patchset_to_dict",
    "patchset_from_dict",
    "validate_problem",
    "load_json",
    "dump_json",
    "PROBLEM_SCHEMA",
    "PROBLEM_KEYS",
]


def rational_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _rat_list(vals):
    return [rational_to_str(v) for v in vals]


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(data, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- T-mesh ---------------------------------------------------------------------


def tmesh_to_dict(raw: RawTMesh) -> dict:
    out = {
        "breakpoints1": _rat_list(raw.breakpoints_x),
        "breakpoints2": _rat_list(raw.breakpoints_y),
        "faces": [list(f) for f in raw.faces],
    }
    if raw.multiplicities:
        out["multiplicities"] = [
            {"axis": axis, "index": idx, "mult": m}
            for (axis, idx), m in sorted(raw.multiplicities.items())
        ]
    return out


def _json_list(value, key, read=lambda v: v) -> tuple:
    try:
        if isinstance(value, list):
            return tuple(map(read, value))
    except TypeError:
        pass
    raise TMeshError(f"T-mesh key {key!r} holds {value!r}, not a list of its entries")


def _breakpoint(key):
    """The reader of the entries of breakpoint table ``key``: exact
    rationals, a string such as "1/4" or an integer.  A float or a boolean
    raises :class:`TMeshError` naming it; a JSON list, object or null is a
    TypeError, which :func:`_json_list` reports on the whole table."""

    def read(v):
        if isinstance(v, (bool, float)):
            raise TMeshError(f"{key} entry {v!r} is not an exact rational (a string such as '1/4' or an integer)")
        return Fraction(v)

    return read


def tmesh_from_dict(d: dict) -> RawTMesh:
    """The raw T-mesh of a T-mesh file; a key it does not read, an entry of
    the wrong JSON type, or a multiplicity given twice raises
    :class:`TMeshError` naming it."""
    unread = sorted(set(d) - {"breakpoints1", "breakpoints2", "faces", "multiplicities"})
    if unread:
        raise TMeshError(f"T-mesh files have no key {unread[0]!r}")
    mult = {}
    for entry in _json_list(d.get("multiplicities", []), "multiplicities"):
        if not isinstance(entry, dict) or sorted(entry) != ["axis", "index", "mult"]:
            raise TMeshError(f"multiplicity entry {entry} does not hold exactly axis, index and mult")
        key = (entry["axis"], entry["index"])
        if any(isinstance(k, (list, dict)) for k in key):
            raise TMeshError(f"multiplicity entry {entry} names no ('x'|'y', line index) pair")
        if key in mult:
            raise TMeshError(f"multiplicity of the {key[0]} line {key[1]} is given twice")
        mult[key] = entry["mult"]
    return RawTMesh(
        _json_list(d["breakpoints1"], "breakpoints1", _breakpoint("breakpoints1")),
        _json_list(d["breakpoints2"], "breakpoints2", _breakpoint("breakpoints2")),
        _json_list(d["faces"], "faces", lambda f: tuple(f) if isinstance(f, list) else f),
        mult,
    )


# -- geometry -------------------------------------------------------------------


def geometry_to_dict(geo: GeometryMap) -> dict:
    out = {
        "degrees": [kv.degree for kv in geo.kvs],
        "knot_vectors": [kv.to_text() for kv in geo.kvs],
        "control_points": np.asarray(geo.control_points).tolist(),
    }
    if geo.weights is not None:
        out["weights"] = np.asarray(geo.weights).tolist()
    return out


def geometry_from_dict(d: dict) -> GeometryMap:
    kvs = tuple(KnotVector.from_text(t) for t in d["knot_vectors"])
    return GeometryMap(kvs, np.asarray(d["control_points"], dtype=float), d.get("weights"))


# -- patch sets -------------------------------------------------------------------


def patchset_to_dict(geoms, interfaces) -> dict:
    return {
        "patches": [geometry_to_dict(g) for g in geoms],
        "interfaces": [
            {
                "a": [itf.a[0], list(itf.a[1])],
                "b": [itf.b[0], list(itf.b[1])],
                **({"perm": list(itf.perm)} if itf.perm else {}),
                **({"flip": list(itf.flip)} if itf.flip else {}),
            }
            for itf in interfaces
        ],
    }


def patchset_from_dict(d: dict):
    geoms = [geometry_from_dict(g) for g in d["patches"]]
    interfaces = []
    for e in d.get("interfaces", []):
        interfaces.append(
            Interface(
                (e["a"][0], tuple(e["a"][1])),
                (e["b"][0], tuple(e["b"][1])),
                tuple(e["perm"]) if "perm" in e else None,
                tuple(e["flip"]) if "flip" in e else None,
            )
        )
    return geoms, interfaces


# -- problem files -----------------------------------------------------------------

PROBLEM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["solve-eig", "solve-source", "solve-waveguide", "convergence"]},
        "formulation": {"enum": ["rotrot2d", "laplace2d", "curlcurl3d"]},
        "benchmark": {"enum": ["square", "lsection", "cylinder-sector"]},
        "degree": {"type": "integer", "minimum": 1},
        "level": {"type": "integer", "minimum": 0},
        "levels": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "eigencount": {"type": "integer", "minimum": 1},
        "nz": {"type": "integer", "minimum": 1},
        "n_section": {"type": "integer", "minimum": 1},
        "k": {"type": "number"},
        "length": {"type": "number"},
        "tensor": {"type": "boolean"},
    },
}


# The keys each command reads besides ``kind``.
PROBLEM_KEYS = {
    "solve-eig": ("formulation", "level", "degree", "eigencount", "nz"),
    "solve-source": ("level", "degree", "nz", "tensor"),
    "solve-waveguide": ("k", "degree", "n_section", "nz", "length"),
    "convergence": ("benchmark", "degree", "levels", "tensor"),
}


def validate_problem(d: dict) -> dict:
    """``d`` if it matches the schema and holds only keys its command reads."""
    jsonschema.validate(d, PROBLEM_SCHEMA)
    unread = sorted(set(d) - {"kind", *PROBLEM_KEYS[d["kind"]]})
    if unread:
        raise ValueError(f"{d['kind']} does not read the problem key {unread[0]!r}")
    return d
