"""Canonical example meshes used by the test suite.

Each builder constructs a specific published configuration by running
the refinement algorithm on an admissible frame mesh; coordinates of the
interesting features (hanging entities, extension boxes) come back as a
small dict so tests can anchor assertions without magic numbers.
"""

from __future__ import annotations

from tmeshkit.mesh import TMesh, build_framed_mesh, hull_inside, subdiv


def opposing_hanging_pair(p1: int, p2: int = 1) -> tuple[TMesh, dict]:
    """Three columns by two rows with the middle column unsplit: two
    opposing hanging vertices at (m, n) and (m+1, n)."""
    if p2 % 2 == 0:
        raise ValueError("second degree must be odd for this configuration")
    f1, f2 = (p1 + 1) // 2, (p2 + 1) // 2
    m, n = f1 + 1, f2 + 1
    mesh = build_framed_mesh((p1, p2), [range(4), [0, 2]])
    mesh = subdiv(mesh, ((m - 1, m), (n - 1, n + 1)), 1)
    mesh = subdiv(mesh, ((m + 1, m + 2), (n - 1, n + 1)), 1)
    return mesh, {"m": m, "n": n}


def corner_tjunction_triple() -> tuple[TMesh, dict]:
    """Degree (3,3) mesh with an opposing hanging pair at (m, n), (m+1, n)
    and a third hanging vertex at (m-1, n+1) from a vertical half-line."""
    m, n = 4, 3
    mesh = build_framed_mesh((3, 3), [[0, 2, 3, 4], [0, 2, 3]])
    mesh = subdiv(mesh, ((m - 2, m), (n - 1, n + 1)), 1)
    mesh = subdiv(mesh, ((m + 1, m + 2), (n - 1, n + 1)), 1)
    mesh = subdiv(mesh, ((m - 2, m), (n + 1, n + 2)), 0)
    return mesh, {"m": m, "n": n}


def crossing_hanging_edges(degrees: tuple, margin: int = 0) -> tuple[TMesh, dict]:
    """3D mesh with two hanging edges of equal pointing direction: one
    z-orthogonal at x = m+1 and one y-orthogonal at x = m+2.

    `margin` adds that many extra unit cells of active region on every
    side, which leaves the hanging configuration intact but gives the
    basis room to reproduce constants away from it.
    """
    p1, p2, p3 = degrees
    f1, f2, f3 = (p1 + 1) // 2, (p2 + 1) // 2, (p3 + 1) // 2
    g = margin
    m, n, r = f1 + g, f2 + g, f3 + g
    yz_breaks = sorted({*range(g + 1), g + 2, *range(g + 3, 2 * g + 3)})
    mesh = build_framed_mesh(
        degrees,
        [range(4 + 2 * g), yz_breaks, yz_breaks])
    # split the whole first column sheet at z = r+1 and the whole third
    # column sheet at y = n+1, so every hanging interface points in
    # direction 1 regardless of the margin width
    active = mesh.domain.active_spans()
    for cell in sorted(mesh.cells):
        if (cell[0] == (m, m + 1) and cell[2] == (r, r + 2)
                and hull_inside(cell, active)):
            mesh = subdiv(mesh, cell, 2)
    for cell in sorted(mesh.cells):
        if (cell[0] == (m + 2, m + 3) and cell[1] == (n, n + 2)
                and hull_inside(cell, active)):
            mesh = subdiv(mesh, cell, 1)
    tj1 = ((m + 1, m + 1), (n, n + 2), (r + 1, r + 1))
    tj2 = ((m + 2, m + 2), (n + 1, n + 1), (r, r + 2))
    return mesh, {"m": m, "n": n, "r": r, "tj1": tj1, "tj2": tj2}


def corner_cascade() -> tuple[TMesh, dict]:
    """Degree (3,3) mesh refined by recursively quartering the lower-left
    corner three hanging levels deep."""
    mesh = build_framed_mesh((3, 3), [[0, 16], [0, 16]])
    q = 2  # frame width
    width = 16
    while width >= 2:
        lo = q
        hi = q + width
        mid = (lo + hi) // 2
        mesh = subdiv(mesh, ((lo, hi), (lo, hi)), 0)
        mesh = subdiv(mesh, ((lo, mid), (lo, hi)), 1)
        mesh = subdiv(mesh, ((mid, hi), (lo, hi)), 1)
        width //= 2
    return mesh, {"q": q}


def flat_block_center_split() -> tuple[TMesh, dict]:
    """3x3x1 active cells (no active neighbors in the third direction)
    with the center cell bisected orthogonally to direction 2."""
    degrees = (1, 1, 1)
    mesh = build_framed_mesh(degrees, [[0, 2, 4, 6], [0, 2, 4, 6], [0, 2]])
    initial = mesh
    center = ((3, 5), (3, 5), (1, 3))
    refined = subdiv(mesh, center, 1)
    return refined, {"initial": initial, "center": center}


def running_example_3d() -> tuple[TMesh, dict]:
    """Degree (3,2,1) mesh on extents (17,13,4): a plus-shaped patch of
    the middle z-layer is bisected in the third direction."""
    mesh = build_framed_mesh((3, 2, 1), [range(14), range(12), [0, 2]])
    plus = [((5, 12), (5, 8)), ((6, 11), (4, 9))]
    cells = sorted({
        (x, y)
        for (xa, xb), (ya, yb) in plus
        for x in range(xa, xb)
        for y in range(ya, yb)})
    for x, y in cells:
        mesh = subdiv(mesh, ((x, x + 1), (y, y + 1), (1, 3)), 2)
    return mesh, {"slice_index": 2}


def band_gap_mesh(variant: str) -> tuple[TMesh, dict]:
    """Two horizontal bands with different column structure.

    Both variants miss the column line at mbar+1 in the lower band.  In
    variant "skip" the lower band is otherwise fully sliced, so local
    knot vectors simply skip the missing index; in variant "partial" the
    lower band also has a broken column at mbar+3 that covers only part
    of the band, which must not enter any knot vector.
    """
    if variant == "skip":
        degrees = (3, 2, 2)
        mbar = 5
        cols = [x for x in range(8) if x != mbar + 1 - 2]
        mesh = build_framed_mesh(degrees, [cols, [0, 2, 4], [0, 2]])
        mesh = subdiv(mesh, ((mbar, mbar + 2), (3, 5), (1, 3)), 0)
        return mesh, {"mbar": mbar}
    if variant == "partial":
        degrees = (3, 2, 2)
        mbar = 5
        cols = [x for x in range(8) if x not in (mbar + 1 - 2, mbar + 3 - 2)]
        mesh = build_framed_mesh(degrees, [cols, [0, 2, 4], [0, 2]])
        mesh = subdiv(mesh, ((mbar, mbar + 2), (3, 5), (1, 3)), 0)
        mesh = subdiv(mesh, ((mbar + 2, mbar + 4), (3, 5), (1, 3)), 0)
        mesh = subdiv(mesh, ((mbar + 2, mbar + 4), (1, 3), (1, 3)), 1)
        mesh = subdiv(mesh, ((mbar + 2, mbar + 4), (2, 3), (1, 3)), 0)
        return mesh, {"mbar": mbar}
    raise ValueError(f"unknown variant {variant!r}")


def band_gap_mesh_even() -> tuple[TMesh, dict]:
    """Degree (4,2,3) variant: anchors carry interval first components,
    and the lower band misses the column between m1+1 and m2+1."""
    degrees = (4, 2, 3)
    m1 = 5
    cols = [x for x in range(8) if x != m1 + 1 - 2]
    mesh = build_framed_mesh(degrees, [cols, [0, 2, 4], [0, 2]])
    mesh = subdiv(mesh, ((m1, m1 + 2), (3, 5), (2, 4)), 0)
    return mesh, {"m1": m1, "m2": m1 + 1}
