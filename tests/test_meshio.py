import json
from fractions import Fraction

import fixtures as fx
import pytest

from tmeshkit.mesh import IndexDomain, create_tensor_mesh
from tmeshkit.meshio import (MeshFormatError, load_mesh, mesh_from_dict,
                             mesh_to_dict, region_from_json, region_to_json,
                             save_mesh)
from tmeshkit.regions import BoxRegion
from tmeshkit.verify import random_admissible_mesh


@pytest.mark.parametrize("builder", [
    lambda: fx.opposing_hanging_pair(1, 1)[0],
    lambda: fx.opposing_hanging_pair(2, 3)[0],
    lambda: fx.corner_tjunction_triple()[0],
    lambda: fx.crossing_hanging_edges((3, 2, 1))[0],
    lambda: fx.corner_cascade()[0],
    lambda: random_admissible_mesh(3, dim=3, max_steps=12),
])
def test_round_trip(tmp_path, builder):
    mesh = builder()
    path = tmp_path / "mesh.json"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert back.domain == mesh.domain
    assert back.entities == mesh.entities


def test_rational_knots_round_trip(tmp_path):
    dom = IndexDomain(extents=(4, 3), degrees=(1, 1),
                      parametric_knots=[
                          [0, Fraction(1, 3), 1, 2, Fraction(7, 2)],
                          [0, 1, Fraction(3, 2), 3]])
    mesh = create_tensor_mesh(dom)
    path = tmp_path / "m.json"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert back.domain.parametric_knots == dom.parametric_knots
    raw = json.loads(path.read_text())
    assert "1/3" in raw["parametric_knots"][0]


def test_refinements_stored_as_points(tmp_path):
    mesh = fx.opposing_hanging_pair(2, 1)[0]
    data = mesh_to_dict(mesh)
    assert data["format_version"] == 1
    assert len(data["refinements"]) == len(mesh.refinement_log)
    for entry in data["refinements"]:
        assert 1 <= entry["direction"] <= 2


def test_malformed_inputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MeshFormatError):
        load_mesh(bad)
    with pytest.raises(MeshFormatError):
        mesh_from_dict({"format_version": 99})
    with pytest.raises(MeshFormatError):
        mesh_from_dict({"format_version": 1, "dim": 2, "extents": [4],
                        "degrees": [1, 1], "breakpoints": [[0, 4], [0, 4]]})


def test_region_json_round_trip():
    region = BoxRegion(2, [((1, 1), (0, 2)), ((0, 4), (Fraction(1, 2), 3))])
    data = region_to_json(region)
    back = region_from_json(data)
    assert back.equals(region)
    assert data["format_version"] == 1


def test_malformed_region_json():
    data = region_to_json(BoxRegion(2, [((1, 1), (0, 2))]))
    for patch in ({"format_version": None}, {"format_version": 2},
                  {"boxes": [[{"point": 1}]]},
                  {"boxes": [[{"point": 1}, {"point": 2}, {"point": 3}]]},
                  {"boxes": [[{"point": 1}, {"interval": [3, 2]}]]},
                  {"boxes": [[{"point": 1}, {"span": [0, 2]}]]}):
        with pytest.raises(MeshFormatError):
            region_from_json(data | patch)
    del data["format_version"]
    with pytest.raises(MeshFormatError, match="format_version"):
        region_from_json(data)
    with pytest.raises(MeshFormatError):
        region_from_json([data])
