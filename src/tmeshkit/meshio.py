"""Mesh and report serialization.

The mesh format stores the initial tensor grid plus the refinement log;
each refinement is addressed by an interior point of its target cell, so
files survive any renaming of entities.  All numbers are bit-exact:
integers stay integers, rationals are "num/den" strings.  Directions in
files and reports are 1-based to match the command-line interface.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .mesh import (IndexDomain, MeshError, TMesh, create_tensor_mesh,
                   find_cell_containing, subdiv)
from .regions import BoxRegion

FORMAT_VERSION = 1


class MeshFormatError(ValueError):
    """The file is not a valid mesh description."""


def _num_to_json(x):
    frac = Fraction(x)
    if frac.denominator == 1:
        return int(frac)
    return f"{frac.numerator}/{frac.denominator}"


def _int_from_json(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise MeshFormatError(f"not an integer: {v!r}")
    return v


def parse_rational(text: str) -> Fraction:
    """An integer, decimal or "num/den" string as a Fraction.  No exponent:
    `Fraction("1e<k>")` computes 10 ** k, a cost unbounded by the length."""
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation in {text!r}")
    return Fraction(text)


def _num_from_json(v):
    if isinstance(v, bool):
        raise MeshFormatError(f"not a number: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return parse_rational(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise MeshFormatError(f"bad rational {v!r}") from exc
    raise MeshFormatError(f"bad number {v!r}")


def mesh_to_dict(mesh: TMesh) -> dict:
    dom = mesh.domain
    refinements = []
    for cell, j in mesh.refinement_log:
        point = [Fraction(a + b, 2) for a, b in cell]
        refinements.append({
            "point": [_num_to_json(x) for x in point],
            "direction": j + 1,
        })
    return {
        "format_version": FORMAT_VERSION,
        "dim": dom.dim,
        "extents": list(dom.extents),
        "degrees": list(dom.degrees),
        "parametric_knots": [[_num_to_json(x) for x in seq]
                             for seq in dom.parametric_knots],
        "breakpoints": [list(seq) for seq in mesh.breakpoints],
        "refinements": refinements,
    }


def mesh_from_dict(data: dict) -> TMesh:
    try:
        if data.get("format_version") != FORMAT_VERSION:
            raise MeshFormatError(
                f"unsupported format_version {data.get('format_version')!r}")
        dim = _int_from_json(data["dim"])
        extents = tuple(_int_from_json(x) for x in data["extents"])
        degrees = tuple(_int_from_json(x) for x in data["degrees"])
        if len(extents) != dim or len(degrees) != dim:
            raise MeshFormatError("extents/degrees length does not match dim")
        knots = [[_num_from_json(x) for x in seq]
                 for seq in data.get("parametric_knots") or []] or None
        breakpoints = [[_int_from_json(x) for x in seq]
                       for seq in data["breakpoints"]]
        refinements = data.get("refinements", [])
        domain = IndexDomain(extents=extents, degrees=degrees,
                             parametric_knots=knots)
        mesh = create_tensor_mesh(domain, breakpoints)
        for number, entry in enumerate(refinements, 1):
            point = tuple(_num_from_json(x) for x in entry["point"])
            direction = _int_from_json(entry["direction"]) - 1
            if len(point) != dim or not 0 <= direction < dim:
                raise MeshFormatError(
                    f"refinement {number}: point or direction out of range")
            try:
                cell = find_cell_containing(mesh, point)
                mesh = subdiv(mesh, cell, direction)
            except MeshError as exc:
                raise MeshFormatError(f"refinement {number}: {exc}") from exc
        return mesh
    except MeshFormatError:
        raise
    except (KeyError, TypeError, ValueError, MeshError) as exc:
        raise MeshFormatError(f"malformed mesh description: {exc}") from exc


def write_json(path, value, default=None) -> None:
    """Write `value` as the package writes every JSON file: indented by
    two, UTF-8, ending in a newline; `default` as in `json.dumps`."""
    Path(path).write_text(json.dumps(value, indent=2, default=default) + "\n",
                          encoding="utf-8")


def save_mesh(mesh: TMesh, path) -> None:
    write_json(path, mesh_to_dict(mesh))


def load_mesh(path) -> TMesh:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # JSON text is UTF-8; too deep nesting and too long integers are malformed
        raise MeshFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MeshFormatError("top-level JSON value must be an object")
    return mesh_from_dict(data)


# ---------------------------------------------------------------------------
# regions and report payloads

def region_to_json(region: BoxRegion) -> dict:
    boxes = []
    for box in region.normalize().boxes:
        comps = []
        for lo, hi in box:
            if lo == hi:
                comps.append({"point": _num_to_json(lo)})
            else:
                comps.append({"interval": [_num_to_json(lo), _num_to_json(hi)]})
        boxes.append(comps)
    return {"format_version": FORMAT_VERSION, "dim": region.dim, "boxes": boxes}


def region_from_json(data: dict) -> BoxRegion:
    if not isinstance(data, dict):
        raise MeshFormatError("region JSON value must be an object")
    try:
        if data.get("format_version") != FORMAT_VERSION:
            raise MeshFormatError(
                f"unsupported format_version {data.get('format_version')!r}")
        dim = _int_from_json(data["dim"])
        boxes = []
        for number, comps in enumerate(data["boxes"], 1):
            if len(comps) != dim:
                raise MeshFormatError(
                    f"box {number}: {len(comps)} components, dim is {dim}")
            spans = []
            for comp in comps:
                if "point" in comp:
                    q = _num_from_json(comp["point"])
                    spans.append((q, q))
                else:
                    lo, hi = comp["interval"]
                    spans.append((_num_from_json(lo), _num_from_json(hi)))
            boxes.append(tuple(spans))
        return BoxRegion(dim, boxes)
    except MeshFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MeshFormatError(f"malformed region description: {exc}") from exc


def entity_to_json(entity) -> list:
    return [[a, b] for a, b in entity]
