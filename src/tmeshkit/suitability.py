"""Abstract and geometric T-junction extensions and the suitability classifiers.

The abstract extension of a slice x_j = n is the part of the slice where
some spline with n in its global knot vector overlaps some spline
without it.  The geometric extension of a T-junction is a box built from
widened local knot vectors around the junction.  A mesh is AAS when
abstract extensions of different directions never meet, SGAS when
geometric extensions of junctions with different orthogonal directions
never meet, and WGAS when that is only required for junctions that also
differ in pointing direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchors import _window, anchor_arrays, global_knot_vector
from .mesh import MeshError, TMesh
from .regions import Box, BoxRegion
from .topology import TJunction, find_tjunctions


class NonAdjacentCellBounds(MeshError):
    """Cell bounds are not adjacent knot entries; the complex is corrupted."""


@dataclass(frozen=True)
class AbstractExtension:
    direction: int
    index: int
    region: BoxRegion


@dataclass(frozen=True)
class GeometricExtension:
    tjunction: TJunction
    vectors: tuple
    region: Box


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array, sorted."""
    rows = rows[np.lexsort(rows.T)]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[first]


def atj_slice(mesh: TMesh, j: int, n: int) -> AbstractExtension:
    """Abstract extension inside the slice x_j = n, as an exact region.

    The supports that contain n, cut to the slice, split into those of
    anchors with n in their global knot vector and the rest; the region
    is the union of the non-empty pairwise intersections across the two
    sets, found in one broadcast over the distinct boxes of each set,
    and normalized."""
    def build():
        d = mesh.dim
        arrays = anchor_arrays(mesh)
        meets = (arrays.support[:, j, 0] <= n) & (n <= arrays.support[:, j, 1])
        inside = arrays.in_gkv[j][meets, n]
        if inside.all() or not inside.any():
            return AbstractExtension(direction=j, index=n,
                                     region=BoxRegion.empty(d))
        sliced = arrays.support[meets].reshape(-1, 2 * d)   # a copy
        sliced[:, 2 * j:2 * j + 2] = n
        b_in = _unique_rows(sliced[inside]).reshape(-1, 1, d, 2)
        b_out = _unique_rows(sliced[~inside]).reshape(1, -1, d, 2)
        lo = np.maximum(b_in[..., 0], b_out[..., 0])
        hi = np.minimum(b_in[..., 1], b_out[..., 1])
        hit = (lo <= hi).all(axis=2)
        rows = _unique_rows(np.stack([lo[hit], hi[hit]], axis=2)
                            .reshape(-1, 2 * d))
        spans = list(map(tuple, rows.reshape(-1, 2).tolist()))
        boxes = list(zip(*[iter(spans)] * d))   # d spans per box
        return AbstractExtension(direction=j, index=n,
                                 region=BoxRegion(d, boxes).normalize())
    return mesh.memo(("atj", j, n), build)


def atj_union(mesh: TMesh, i: int) -> BoxRegion:
    """Union of the abstract extensions over all slices of direction i."""
    region = BoxRegion.empty(mesh.dim)
    for n in range(mesh.domain.extents[i] + 1):
        region = region.union(atj_slice(mesh, i, n).region)
    return region


def is_aas(mesh: TMesh) -> tuple[bool, tuple]:
    """Abstract analysis-suitability; witnesses are intersecting slice pairs
    (i, n, j, m, intersection region)."""
    def build():
        d = mesh.dim
        nonempty = {}
        for j in range(d):
            for n in range(mesh.domain.extents[j] + 1):
                ext = atj_slice(mesh, j, n)
                if not ext.region.is_empty():
                    nonempty.setdefault(j, []).append(ext)
        witnesses = []
        dirs = sorted(nonempty)
        for ai in range(len(dirs)):
            for bi in range(ai + 1, len(dirs)):
                for e1 in nonempty[dirs[ai]]:
                    for e2 in nonempty[dirs[bi]]:
                        inter = e1.region.intersect(e2.region)
                        if not inter.is_empty():
                            witnesses.append((e1.direction, e1.index,
                                              e2.direction, e2.index,
                                              inter.normalize()))
        return (not witnesses, tuple(witnesses))
    return mesh.memo("aas", build)


def gtj(mesh: TMesh, tj: TJunction) -> GeometricExtension:
    """Geometric extension of a T-junction.

    Pointing direction: p+1 entries, centered on the junction value (even
    degree) or with the associated cell's bounds as the two middle entries
    (odd degree).  Orthogonal direction: the singleton itself.  Remaining
    directions: p + 2 + (p mod 2) entries with the junction interval in
    the middle; these windows are truncated at the domain ends, which
    leaves the extension box unchanged inside the closed domain.

    The closed box deliberately escapes the orthogonal skeleton (it spans
    open cell interiors across the hanging interface); the region algebra
    treats it as any other closed box.
    """
    def build():
        dom = mesh.domain
        i, j, q, t = tj.odir, tj.pdir, tj.ascell, tj.entity
        vectors = []
        for k in range(dom.dim):
            p = dom.degrees[k]
            gkv = global_knot_vector(mesh, t, k)
            if k == i:
                vectors.append((t[i][0],))
            elif k == j:
                if p % 2 == 0:
                    vectors.append(_window(gkv, t[j][0], p // 2, p + 1, t))
                else:
                    w = _window(gkv, q[j][0], p // 2, p + 1, t)
                    if w[p // 2 + 1] != q[j][1]:
                        raise NonAdjacentCellBounds(
                            f"cell bounds of {q!r} not adjacent in the knot "
                            f"vector of {t!r}")
                    vectors.append(w)
            else:
                c = p % 2
                half = (p + 1) // 2  # ceil(p/2)
                w = _window(gkv, t[k][0], half, p + 2 + c, t, truncate=True)
                pos = w.index(t[k][0])
                if pos + 1 >= len(w) or w[pos + 1] != t[k][1]:
                    raise NonAdjacentCellBounds(
                        f"component bounds of {t!r} not adjacent in "
                        f"direction {k}")
                vectors.append(w)
        region = tuple((min(v), max(v)) for v in vectors)
        return GeometricExtension(tjunction=tj, vectors=tuple(vectors),
                                  region=region)
    return mesh.memo(("gtj", tj.entity), build)


def gtj_union(mesh: TMesh, i: int) -> BoxRegion:
    """Union of geometric extensions of all i-orthogonal T-junctions."""
    boxes = [gtj(mesh, tj).region for tj in find_tjunctions(mesh)
             if tj.odir == i]
    return BoxRegion(mesh.dim, set(boxes))


def _gtj_disjointness(mesh: TMesh, require_pdir_differs: bool) -> tuple[bool, tuple]:
    """Witnesses (t1, t2, intersection box), in junction-pair order, for
    the pairs with different orthogonal (and, if required, pointing)
    directions whose extension boxes meet; all pairs in one broadcast."""
    tjs = find_tjunctions(mesh)
    boxes = np.array([gtj(mesh, tj).region for tj in tjs],
                     dtype=np.int64).reshape(len(tjs), mesh.dim, 2)
    odir = np.array([tj.odir for tj in tjs])
    pairs = odir[:, None] != odir[None, :]
    if require_pdir_differs:
        pdir = np.array([tj.pdir for tj in tjs])
        pairs &= pdir[:, None] != pdir[None, :]
    for k in range(mesh.dim):
        lo, hi = boxes[:, k, 0], boxes[:, k, 1]
        pairs &= np.maximum.outer(lo, lo) <= np.minimum.outer(hi, hi)
    ia, ib = np.nonzero(np.triu(pairs, 1))
    lo = np.maximum(boxes[ia, :, 0], boxes[ib, :, 0]).tolist()
    hi = np.minimum(boxes[ia, :, 1], boxes[ib, :, 1]).tolist()
    witnesses = tuple((tjs[a], tjs[b], tuple(zip(l, h)))
                      for a, b, l, h in zip(ia.tolist(), ib.tolist(), lo, hi))
    return (not witnesses, witnesses)


def is_sgas(mesh: TMesh) -> tuple[bool, tuple]:
    """Strong geometric suitability: extensions of T-junctions with
    different orthogonal directions are disjoint."""
    return mesh.memo("sgas", lambda: _gtj_disjointness(mesh, False))


def is_wgas(mesh: TMesh) -> tuple[bool, tuple]:
    """Weak geometric suitability: disjointness only for pairs that differ
    in both the orthogonal and the pointing direction."""
    return mesh.memo("wgas", lambda: _gtj_disjointness(mesh, True))
