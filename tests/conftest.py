import sys
import time
from importlib import resources
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tmeshkit.cli import main  # noqa: E402
from tmeshkit.mesh import (IndexDomain, build_framed_mesh,  # noqa: E402
                           create_tensor_mesh, subdiv)
from tmeshkit.meshio import load_mesh  # noqa: E402
from tmeshkit.verify import cold_copy, random_admissible_mesh  # noqa: E402,F401

CORPUS_SEED = 20260810


def corpus_subseed(k: int) -> int:
    return (CORPUS_SEED * 1_000_003 + k) % (1 << 62)


def run(*argv):
    """`cli.main` on the arguments, with argparse's exit as a return."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def grid2d():
    """The bilinear 8 x 8 tensor mesh of 4 x 4 cells, each 2 wide."""
    return create_tensor_mesh(IndexDomain(extents=(8, 8), degrees=(1, 1)),
                              [[0, 2, 4, 6, 8]] * 2)


def refined2d():
    return subdiv(grid2d(), ((2, 4), (2, 4)), 0)


def shipped_meshes():
    """The four meshes of the package's `data` directory, by file name."""
    return [load_mesh(path) for path in sorted(
        resources.files("tmeshkit").joinpath("data").iterdir(),
        key=lambda path: path.name) if path.name.endswith(".json")]


def cross_mesh(L: int):
    """The bicubic 3 x 3 grid of L x L cells (L a power of two), with the
    middle row bisected in x down to unit width and the two other cells
    of the middle column in y: 5 (L - 1) bisections.  The x-fine anchors
    have long supports in y and the y-fine ones long supports in x, so
    nearly every pair of them meets, and every classifier but
    admissibility fails with a number of witnesses quadratic in L."""
    mesh = build_framed_mesh((3, 3), [[0, L, 2 * L, 3 * L]] * 2)
    lo, hi = L + 2, 2 * L + 2   # the middle band, past the frame of width 2

    def halve(mesh, cell, j):
        a, b = cell[j]
        if b - a == 1:
            return mesh
        mesh = subdiv(mesh, cell, j)
        for half in ((a, (a + b) // 2), ((a + b) // 2, b)):
            mesh = halve(mesh, cell[:j] + (half,) + cell[j + 1:], j)
        return mesh

    for x in (2, lo, hi):
        mesh = halve(mesh, ((x, x + L), (lo, hi)), 0)
    for y in (2, hi):
        mesh = halve(mesh, ((lo, hi), (y, y + L)), 1)
    return mesh


def crossing_4d_mesh():
    """A linear 4-D mesh with junctions orthogonal to directions 3 and 2
    whose abstract extensions meet in a 2-D region."""
    mesh = build_framed_mesh((1, 1, 1, 1), [[0, 2, 4]] * 4)
    mesh = subdiv(mesh, ((1, 3),) * 4, 3)
    return subdiv(mesh, ((1, 3), (1, 3), (1, 3), (1, 2)), 2)


def four_d_meshes():
    """A linear 4-D mesh bisected once, `crossing_4d_mesh`, and three
    seeded 4-D meshes."""
    once = subdiv(build_framed_mesh((1, 1, 1, 1), [[0, 2, 4]] * 4),
                  ((1, 3),) * 4, 3)
    return [once, crossing_4d_mesh()] + [
        random_admissible_mesh(s, dim=4, max_steps=14) for s in (2, 3, 4)]


@pytest.fixture(scope="session")
def corpus200():
    """The shared fuzz corpus: 200 seeded admissible meshes, d in {2, 3},
    degrees <= 3 of mixed parity, up to 40 bisections; every fourth mesh
    refines in a single direction to populate the strongly-suitable class."""
    t0 = time.monotonic()
    meshes = []
    for k in range(200):
        sub = corpus_subseed(k)
        mode = "single" if k % 4 == 0 else "mixed"
        meshes.append((sub, random_admissible_mesh(sub, max_steps=40,
                                                   direction_mode=mode)))
    elapsed = time.monotonic() - t0
    return {"meshes": meshes, "build_seconds": elapsed}
