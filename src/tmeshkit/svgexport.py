"""Deterministic SVG rendering of 2D slices: skeleton, extensions, anchors.

A 3D mesh is drawn on the slice x_k = n; a 2D mesh is drawn whole.  The
exact region of each extension layer is embedded verbatim (as region
JSON) in a <desc> element, so tests compare serialized geometry rather
than pixels.  Element order is sorted and the output is byte-stable for
a fixed mesh and flag set.  The extension and anchor layers import
their classifier modules, and with them numpy, when they are drawn, so
importing this module loads neither.
"""

from __future__ import annotations

import json

from .mesh import TMesh
from .meshio import region_to_json
from .regions import BoxRegion

SCALE = 40
PAD = 20
LAYER_STYLE = {
    "skeleton": 'stroke="#222222" stroke-width="1.5" fill="none"',
    "atj": 'fill="#d62728" fill-opacity="0.25" stroke="#d62728" stroke-width="2"',
    "gtj": 'fill="#2ca02c" fill-opacity="0.25" stroke="#2ca02c" stroke-width="2"',
    "anchors": 'fill="#1f77b4" stroke="none"',
}


def _fmt(x) -> str:
    return f"{float(x):.4f}".rstrip("0").rstrip(".")


def _to_svg(height, u, v):
    """SVG user units of the point (u, v) of a slice plane `height` high."""
    return PAD + SCALE * float(u), PAD + SCALE * (height - float(v))


def _rect(height, span_u, span_v, style) -> str:
    x0, y1 = _to_svg(height, span_u[0], span_v[0])
    x1, y0 = _to_svg(height, span_u[1], span_v[1])
    if span_u[0] == span_u[1] or span_v[0] == span_v[1]:
        return (f'<line x1="{_fmt(x0)}" y1="{_fmt(y1)}" x2="{_fmt(x1)}" '
                f'y2="{_fmt(y0)}" {style} />')
    return (f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(y1 - y0)}" {style} />')


def _dot(height, u, v) -> str:
    x, y = _to_svg(height, u, v)
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" />'


def _slice_spans(hull, k, n, axes):
    """Hull restricted to the slice, projected onto the plane axes; None
    when the hull misses the slice."""
    if k is not None and not hull[k][0] <= n <= hull[k][1]:
        return None
    return tuple(hull[a] for a in axes)


def render_slice_svg(mesh: TMesh, k: int | None = None, n: int | None = None,
                     layers=tuple(LAYER_STYLE)) -> str:
    """Render the slice x_k = n (k, n in 0-based index coordinates), or the
    whole mesh when it is two-dimensional and k is None."""
    d = mesh.dim
    if d not in (2, 3):
        raise ValueError(f"SVG export draws 2-D meshes and slices of 3-D "
                         f"meshes; this mesh is {d}-D")
    if d == 2 and k is None:
        axes = (0, 1)
    elif d == 3 and k is not None and n is not None:
        axes = tuple(a for a in range(3) if a != k)
    else:
        raise ValueError("need a --slice k=n for 3D meshes; none for 2D")
    width = mesh.domain.extents[axes[0]]
    height = mesh.domain.extents[axes[1]]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SCALE * width + 2 * PAD}" height="{SCALE * height + 2 * PAD}">',
        f'<!-- tmeshkit slice render; axes={tuple(a + 1 for a in axes)} -->',
    ]
    for layer in layers:
        if layer == "skeleton":
            parts.append(_skeleton_layer(mesh, k, n, axes, height))
        elif layer in ("atj", "gtj"):
            parts.append(_region_layer(mesh, k, n, axes, height, layer))
        elif layer == "anchors":
            parts.append(_anchor_layer(mesh, k, n, axes, height))
        else:
            raise ValueError(f"unknown layer {layer!r}")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _region_desc(region: BoxRegion) -> str:
    payload = json.dumps(region_to_json(region), sort_keys=True)
    return f"<desc>{payload}</desc>"


def _skeleton_layer(mesh, k, n, axes, height) -> str:
    shapes = set()
    for s in range(mesh.dim):
        for f in mesh.entities[(s,)]:
            if s == k:
                if f[s][0] == n:  # face lying inside the slice: filled patch
                    spans = _slice_spans(f, k, n, axes)
                    shapes.add(_rect(height, *spans, 'fill="#bbbbbb" '
                                     'fill-opacity="0.35" stroke="none"'))
                continue
            spans = _slice_spans(f, k, n, axes)
            if spans is not None:
                shapes.add(_rect(height, *spans, LAYER_STYLE["skeleton"]))
    return ('<g id="layer-skeleton">\n' + "\n".join(sorted(shapes))
            + "\n</g>")


def _layer_region(mesh, k, n, kind) -> BoxRegion:
    from .suitability import atj_slice, atj_union, gtj_union

    if k is None:   # a 2-D mesh: the union over all directions
        union = atj_union if kind == "atj" else gtj_union
        return BoxRegion(mesh.dim, {box for j in range(mesh.dim)
                                    for box in union(mesh, j).boxes})
    if kind == "atj":
        return atj_slice(mesh, k, n).region
    # the k-orthogonal extensions are flat in direction k
    return BoxRegion(mesh.dim, [box for box in gtj_union(mesh, k).boxes
                                if box[k] == (n, n)])


def _region_layer(mesh, k, n, axes, height, kind) -> str:
    region = _layer_region(mesh, k, n, kind).normalize()
    shapes = []
    for box in region.boxes:
        spans = _slice_spans(box, k, n, axes)
        if spans is not None:
            shapes.append(_rect(height, *spans, LAYER_STYLE[kind]))
    return (f'<g id="layer-{kind}">\n{_region_desc(region)}\n'
            + "\n".join(sorted(set(shapes))) + "\n</g>")


def _anchor_layer(mesh, k, n, axes, height) -> str:
    from .anchors import anchor_set

    shapes = set()
    for a in anchor_set(mesh):
        spans = _slice_spans(a, k, n, axes)
        if spans is None:
            continue
        (u0, u1), (v0, v1) = spans
        if u0 == u1 and v0 == v1:
            shapes.add(_dot(height, u0, v0))
        else:
            shapes.add(_rect(height, (u0, u1), (v0, v1),
                             'stroke="#1f77b4" stroke-width="1" '
                             'stroke-dasharray="3 2" fill="none"'))
    return ('<g id="layer-anchors" fill="#1f77b4">\n' + "\n".join(sorted(shapes))
            + "\n</g>")


def extract_layer_region(svg_text: str, layer: str) -> BoxRegion:
    """Parse back the exact region embedded in a layer's <desc> element."""
    from .meshio import region_from_json

    marker = f'<g id="layer-{layer}">'
    start = svg_text.index(marker)
    dstart = svg_text.index("<desc>", start) + len("<desc>")
    dend = svg_text.index("</desc>", dstart)
    return region_from_json(json.loads(svg_text[dstart:dend]))
