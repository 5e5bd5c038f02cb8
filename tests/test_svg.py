import fixtures as fx
import pytest

from tmeshkit.suitability import atj_slice, atj_union
from tmeshkit.svgexport import extract_layer_region, render_slice_svg


def test_render_is_deterministic():
    mesh, _ = fx.corner_tjunction_triple()
    one = render_slice_svg(mesh)
    two = render_slice_svg(mesh)
    assert one == two
    assert one.startswith("<?xml")
    assert '<g id="layer-skeleton">' in one
    assert one.count("<svg") == one.count("</svg>") == 1


def test_slice_required_for_3d():
    mesh, _ = fx.running_example_3d()
    with pytest.raises(ValueError):
        render_slice_svg(mesh)


def test_embedded_atj_region_matches_library():
    mesh, info = fx.running_example_3d()
    svg = render_slice_svg(mesh, 2, info["slice_index"])
    embedded = extract_layer_region(svg, "atj")
    assert embedded.equals(atj_slice(mesh, 2, info["slice_index"]).region)


def test_embedded_regions_2d():
    mesh, _ = fx.corner_cascade()
    svg = render_slice_svg(mesh)
    embedded = extract_layer_region(svg, "atj")
    whole = atj_union(mesh, 0).union(atj_union(mesh, 1))
    assert embedded.equals(whole)


def test_unknown_layer_rejected():
    mesh, _ = fx.corner_tjunction_triple()
    with pytest.raises(ValueError):
        render_slice_svg(mesh, layers=("skeleton", "bogus"))
