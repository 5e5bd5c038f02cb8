import itertools
import math
import random
from fractions import Fraction
from importlib import resources

import fixtures as fx
import pytest
from conftest import cross_mesh

from tmeshkit import mesh as tmesh
from tmeshkit.mesh import (MAX_ENTITIES, MAX_LATTICE_POINTS,
                           CellOutsideActiveRegion,
                           DimensionTooSmall, IndexDomain, MeshError,
                           NonIntegerMidpoint, NotACell, active_region,
                           build_framed_mesh, check_three_direction_assumption,
                           create_tensor_mesh,
                           find_cell_containing,
                           frame_region, frame_region_k, hull_inside,
                           TMesh, is_admissible, orth_entities,
                           point_in_skeleton, skeleton, subdiv)
from tmeshkit.meshio import load_mesh
from tmeshkit.regions import DimensionMismatch
from tmeshkit.verify import mesh_stream, random_admissible_mesh


def grid2d():
    dom = IndexDomain(extents=(8, 8), degrees=(1, 1))
    return create_tensor_mesh(dom, [[0, 2, 4, 6, 8]] * 2)


def refined2d():
    return subdiv(grid2d(), ((2, 4), (2, 4)), 0)


def test_smallest_1d_grid():
    dom = IndexDomain(extents=(2,), degrees=(0,))
    mesh = create_tensor_mesh(dom, [[0, 1, 2]])
    assert mesh.entities[()] == {((0, 1),), ((1, 2),)}
    assert mesh.entities[(0,)] == {((0, 0),), ((1, 1),), ((2, 2),)}


def test_tensor_counts_2d():
    mesh = grid2d()
    # 4 intervals and 5 singletons per direction
    assert len(mesh.entities[()]) == 16
    assert len(mesh.entities[(0,)] | mesh.entities[(1,)]) == 40
    assert len(mesh.entities[(0, 1)]) == 25


def test_domain_validation():
    with pytest.raises(ValueError):
        IndexDomain(extents=(2,), degrees=(2,))  # active region empty
    with pytest.raises(ValueError):
        IndexDomain(extents=(4, 4), degrees=(1,))
    with pytest.raises(ValueError):
        IndexDomain(extents=(4,), degrees=(1,), parametric_knots=[[0, 1, 1, 2, 3]])
    with pytest.raises(ValueError, match="^degrees must be non-negative$"):
        IndexDomain(extents=(4, 4), degrees=(1, -1))
    with pytest.raises(ValueError, match=r"^parametric_knots\[k\] must have "
                                         r"N_k \+ 1 entries$"):
        IndexDomain(extents=(4,), degrees=(1,), parametric_knots=[[0, 1, 2, 3]])
    # spline evaluation is float: increasing fractions that round together
    tiny = Fraction(1, 10 ** 400)
    with pytest.raises(ValueError, match="distinct as floats"):
        IndexDomain(extents=(4,), degrees=(1,),
                    parametric_knots=[[0, tiny, 2 * tiny, 3, 4]])
    with pytest.raises(ValueError, match="distinct as floats"):
        IndexDomain(extents=(4,), degrees=(1,),
                    parametric_knots=[[0, 1, 2, 3, 3 + Fraction(1, 2 ** 60)]])


def test_entity_limit(monkeypatch):
    # 2047 x 513 entities are too many: refused before any is made
    assert 2047 * 511 <= MAX_ENTITIES < 2047 * 513
    with pytest.raises(MeshError, match="entities"):
        create_tensor_mesh(IndexDomain(extents=(1023, 256), degrees=(1, 1)),
                           [range(1024), range(257)])
    # a bisection is allowed exactly up to its child's entity count
    mesh = create_tensor_mesh(IndexDomain(extents=(8, 8), degrees=(1, 1)),
                              [[0, 1, 2, 4, 6, 7, 8]] * 2)
    cell = ((2, 4), (2, 4))
    child = sum(map(len, subdiv(mesh, cell, 0).entities.values()))
    monkeypatch.setattr(tmesh, "MAX_ENTITIES", child)
    subdiv(mesh, cell, 0)
    monkeypatch.setattr(tmesh, "MAX_ENTITIES", child - 1)
    with pytest.raises(MeshError, match="entities"):
        subdiv(mesh, cell, 0)


def test_lattice_size_limit():
    # 2**24 lattice points: 4095 * 4097 fit, 4097 * 4097 do not
    assert 4095 * 4097 <= MAX_LATTICE_POINTS < 4097 * 4097
    IndexDomain(extents=(2047, 2048), degrees=(1, 1))
    with pytest.raises(ValueError, match="lattice points"):
        IndexDomain(extents=(2048, 2048), degrees=(1, 1))
    with pytest.raises(ValueError, match="lattice points"):
        IndexDomain(extents=(5000, 5000), degrees=(1, 1))


def test_breakpoint_validation():
    dom = IndexDomain(extents=(4,), degrees=(1,))
    with pytest.raises(MeshError):
        create_tensor_mesh(dom, [[0, 2]])  # does not reach N
    with pytest.raises(MeshError):
        create_tensor_mesh(dom, [[4]])
    with pytest.raises(MeshError):
        create_tensor_mesh(dom, [[0, 2, 2, 4]])


def test_active_and_frame_regions():
    mesh3 = build_framed_mesh((3, 2, 1), [range(14), range(12), [0, 2]])
    assert mesh3.domain.extents == (17, 13, 4)
    assert active_region(mesh3).boxes == (((2, 15), (1, 12), (1, 3)),)

    dom = IndexDomain(extents=(2, 2), degrees=(0, 0))
    mesh = create_tensor_mesh(dom)
    assert active_region(mesh).boxes == (((0, 2), (0, 2)),)
    assert frame_region(mesh).is_empty()

    assert active_region(grid2d()).boxes == (((1, 7), (1, 7)),)
    fr = frame_region_k(grid2d(), 0)
    assert fr.contains_point((Fraction(1, 2), 4))
    assert not fr.contains_point((4, 4))


def test_subdiv_inserts_children():
    mesh = refined2d()
    cells = mesh.entities[()]
    assert ((2, 3), (2, 4)) in cells and ((3, 4), (2, 4)) in cells
    assert ((2, 4), (2, 4)) not in cells
    assert ((3, 3), (2, 4)) in mesh.entities[(0,)]  # the new face
    for edge in [((2, 3), (2, 2)), ((3, 4), (2, 2)),
                 ((2, 3), (4, 4)), ((3, 4), (4, 4))]:
        assert edge in mesh.entities[(1,)]
    assert ((3, 3), (2, 2)) in mesh.entities[(0, 1)]
    assert ((3, 3), (4, 4)) in mesh.entities[(0, 1)]


def test_subdiv_replacement_count():
    base = grid2d()
    mesh = refined2d()
    # replaced: the cell itself and its two edges sharing the split
    # component; every replacement grows the complex by two entities
    replaced = [e for bucket in base.entities.values() for e in bucket
                if e[0] == (2, 4) and all(2 <= a and b <= 4 for a, b in e)]
    assert len(replaced) == 3
    total_new = sum(map(len, mesh.entities.values()))
    total_old = sum(map(len, base.entities.values()))
    assert total_new == total_old + 2 * len(replaced)


def test_subdiv_preconditions():
    base = grid2d()
    with pytest.raises(CellOutsideActiveRegion):
        subdiv(base, ((2, 4), (0, 2)), 1)
    with pytest.raises(NotACell):
        subdiv(base, ((2, 4), (2, 5)), 0)
    unit = create_tensor_mesh(IndexDomain(extents=(4, 4), degrees=(1, 1)))
    with pytest.raises(NonIntegerMidpoint):
        subdiv(unit, ((1, 2), (1, 2)), 0)


def test_frame_extension_splits_through_frame():
    # bisecting a cell that touches the active-region boundary carries the
    # cut through the frame to the domain boundary
    mesh = build_framed_mesh((1, 1), [[0, 2, 4], [0, 2, 4]])
    mesh = subdiv(mesh, ((1, 3), (1, 3)), 0)
    # the cell touches the frame below only: the cut reaches y = 0 but
    # stops at the top of the cell, leaving a hanging vertex at (2, 3)
    assert ((2, 2), (0, 1)) in mesh.entities[(0,)]
    assert ((2, 2), (5, 6)) not in mesh.entities[(0,)]
    assert ((2, 2), (3, 3)) in mesh.entities[(0, 1)]
    ok, violations = is_admissible(mesh)
    assert ok, violations


def test_skeleton_membership():
    mesh = grid2d()
    sk1 = skeleton(mesh, 0)
    assert sk1.contains_point((2, Fraction(13, 7)))
    assert not sk1.contains_point((3, 3))
    ref = skeleton(refined2d(), 0)
    assert ref.contains_point((3, 3))
    assert not ref.contains_point((3, 5))
    # a hanging node lies in the skeletons of both directions
    hanging = (3, 2)
    assert ref.contains_point(hanging)
    assert skeleton(refined2d(), 1).contains_point(hanging)
    # the lattice lookup against the region, on rationals with denominators
    # 1..6 that reach two units past the domain
    rng = random.Random(5)
    for mesh in (refined2d(), fx.corner_cascade()[0], fx.running_example_3d()[0]):
        for j in range(mesh.dim):
            region = skeleton(mesh, j)
            for _ in range(400):
                den = rng.randint(1, 6)
                p = tuple(Fraction(rng.randint(-2 * den, (n + 2) * den), den)
                          for n in mesh.domain.extents)
                assert point_in_skeleton(mesh, j, p) == region.contains_point(p), p
    with pytest.raises(DimensionMismatch):
        point_in_skeleton(mesh, 0, (2, 2))


def _painted_masks(mesh):
    """The skeleton masks painted one hyperface closure at a time."""
    import numpy as np

    shape = tuple(2 * n + 1 for n in mesh.domain.extents)
    masks = []
    for k in range(mesh.dim):
        paint = np.zeros(shape, dtype=bool)
        for e in mesh.entities[(k,)]:
            paint[tuple(slice(2 * a, 2 * b + 1) for a, b in e)] = True
        masks.append(paint)
    return masks


def test_skeleton_masks_equal_a_slice_painting(corpus200, monkeypatch):
    # the corner scatter and running sums against one slice assignment
    # per hyperface, on 2-D to 4-D meshes, cross meshes whose skeletons
    # reach every edge of the lattice, and a 1-D mesh with no other axis
    import numpy as np

    meshes = [m for _, m in corpus200["meshes"]]
    meshes += [cross_mesh(16), cross_mesh(64)]
    meshes += [random_admissible_mesh(seed, dim=4, max_steps=14)
               for seed in range(5)]
    meshes.append(create_tensor_mesh(IndexDomain((9,), (2,)),
                                     [[0, 1, 2, 4, 5, 8, 9]]))
    for mesh in meshes:
        mesh = TMesh(mesh.domain, mesh.breakpoints, mesh.entities)
        for k, paint in enumerate(_painted_masks(mesh)):
            mask = tmesh.skeleton_mask(mesh, k)
            assert mask.dtype == bool and mask.shape == paint.shape
            assert np.array_equal(mask, paint), (mesh.domain, k)
    # one hyperface per chunk, on a mesh with hanging faces in 3-D: the
    # painter takes MAX_LATTICE_POINTS >> (d + 6) faces at a time
    mesh = fx.running_example_3d()[0]
    mesh = TMesh(mesh.domain, mesh.breakpoints, mesh.entities)
    monkeypatch.setattr(tmesh, "MAX_LATTICE_POINTS", 1 << 9)
    for k, paint in enumerate(_painted_masks(mesh)):
        mask = tmesh.skeleton_mask(mesh, k)
        assert mask.shape == paint.shape and np.array_equal(mask, paint)
    # 2^(d-1) closures meeting at the centre of the plane x_0 = 1, five
    # per chunk: the count wraps around but stays exact, in uint8 at d = 8
    # and in uint16 at d = 9, where uint8 would read 256 as 0
    for d in (8, 9):
        faces = frozenset(((1, 1),) + halves for halves in
                          itertools.product(((0, 1), (1, 2)), repeat=d - 1))
        paint = np.zeros((5,) * d, dtype=bool)
        for e in faces:
            paint[tuple(slice(2 * a, 2 * b + 1) for a, b in e)] = True
        monkeypatch.setattr(tmesh, "MAX_LATTICE_POINTS", 5 << (d + 6))
        mask = tmesh._closure_mask(faces, 0, paint.shape)
        assert np.array_equal(mask, paint) and mask[(2,) * d]


def test_closure_masks_paint_only_the_face_planes(monkeypatch):
    # the running sums of a mask build run over the planes that hold
    # faces, not over the whole lattice; the sparse 2-D mesh has 6 planes
    # per direction on the largest lattice a domain may have
    painted = []
    paint_boxes = tmesh._paint_boxes

    def spy(shape, *args):
        painted.append(shape)
        return paint_boxes(shape, *args)

    monkeypatch.setattr(tmesh, "_paint_boxes", spy)
    sparse = create_tensor_mesh(IndexDomain((2047, 2047), (1, 1)),
                                [[0, 1, 1023, 2045, 2046, 2047]] * 2)
    for mesh in (fx.running_example_3d()[0], cross_mesh(8), sparse):
        mesh = TMesh(mesh.domain, mesh.breakpoints, mesh.entities)
        lattice = [2 * n + 1 for n in mesh.domain.extents]
        painted.clear()
        masks = [tmesh.skeleton_mask(mesh, k) for k in range(mesh.dim)]
        planes = [len({f[k][0] for f in mesh.entities[(k,)]})
                  for k in range(mesh.dim)]
        assert painted == [tuple(lattice[:k] + [planes[k]] + lattice[k + 1:])
                           for k in range(mesh.dim)]
        assert all(m.shape == tuple(lattice) for m in masks)
    assert planes == [6, 6]


def test_box_queries_refuse_boxes_outside_the_domain():
    # a box past the closed domain used to read an empty raster slice
    # (vacuously true) and reversed bounds wrapped negative indices
    from tmeshkit.anchors import global_knot_vector

    mesh = build_framed_mesh((1, 1), [[0, 2, 4], [0, 2, 4]])   # 6 x 6
    queries = [lambda box: global_knot_vector(mesh, box, 0),
               lambda box: tmesh.hull_in_skeleton(mesh, 0, box),
               lambda box: tmesh.open_entity_meets_skeleton(mesh, 0, box)]
    for query in queries:
        for box in (((2, 2), (99, 99)), ((20, 30), (0, 6)), ((3, 1), (0, 6)),
                    ((-1, 2), (0, 6)), ((0, 7), (1, 1))):
            with pytest.raises(ValueError, match="not within 0 <= a <= b"):
                query(box)
        for box in (((2, 2),), ((2, 2), (0, 6), (0, 0))):
            with pytest.raises(DimensionMismatch):
                query(box)
    assert global_knot_vector(mesh, ((2, 2), (6, 6)), 0) == (0, 1, 3, 5, 6)
    assert global_knot_vector(mesh, ((0, 6), (0, 6)), 0) == (0, 1, 3, 5, 6)
    assert tmesh.hull_in_skeleton(mesh, 0, ((3, 3), (0, 6)))
    assert not tmesh.hull_in_skeleton(mesh, 0, ((0, 6), (0, 6)))
    assert tmesh.open_entity_meets_skeleton(mesh, 0, ((0, 6), (2, 2)))
    # and a bad box still raises once its line has been read
    for box in (((-1, 2), (6, 6)), ((3, 1), (6, 6)), ((0, 7), (6, 6))):
        with pytest.raises(ValueError, match="not within 0 <= a <= b"):
            global_knot_vector(mesh, box, 0)


def test_direction_queries_refuse_directions_outside_the_mesh():
    # skeleton_mask(m, -1) was the mask of direction d - 1, memoized under
    # a second key, and global_knot_vector ended in an IndexError
    from tmeshkit.anchors import global_knot_vector

    mesh = build_framed_mesh((1, 1), [[0, 2, 4], [0, 2, 4]])   # 6 x 6
    queries = [lambda j: tmesh.skeleton_mask(mesh, j),
               lambda j: global_knot_vector(mesh, ((2, 2), (2, 2)), j),
               lambda j: tmesh.hull_in_skeleton(mesh, j, ((1, 1), (0, 6))),
               lambda j: tmesh.open_entity_meets_skeleton(
                   mesh, j, ((0, 6), (2, 2))),
               lambda j: point_in_skeleton(mesh, j, (1, 1))]
    for _ in range(2):   # with a cold memo, then with the masks memoized
        for query in queries:
            for j in (-1, -2, 2, 3):
                with pytest.raises(ValueError, match="out of range"):
                    query(j)
        assert global_knot_vector(mesh, ((2, 2), (2, 2)), 1) == (0, 1, 3, 5, 6)
    masks = [value for key, value in mesh._memo.items()
             if (key if isinstance(key, str) else key[0]) == "skeleton_mask"]
    assert len(masks) == 1 and len(masks[0]) == 2
    for j in (-1, 2):
        with pytest.raises(ValueError, match=f"^direction {j} out of range$"):
            subdiv(mesh, ((1, 3), (1, 3)), j)
        with pytest.raises(ValueError,
                           match=rf"^directions \({j},\) out of range$"):
            orth_entities(mesh, (j,))


# the memo kinds of a classified mesh: each derived structure once, under
# the function that builds it (and the oracle's direct knot vectors)
MEMO_KINDS = {"skeleton_mask", "tjunctions", "anchors", "anchor_arrays",
              "gtj_table", "gtj_pairs", "dc_pairs", "direct_anchor_knots"}


def _assert_memo_keys_name_structures(mesh):
    # every key is a string naming one structure, so the memo holds at
    # most one entry per kind however many lines a caller reads
    keys = list(mesh._memo)
    assert all(isinstance(key, str) for key in keys), keys
    assert set(keys) <= MEMO_KINDS, set(keys) - MEMO_KINDS


def test_classified_meshes_memoize_each_structure_once(corpus200):
    # 2-D and 3-D corpus meshes, replayed for an empty memo, classified
    # as a benchmark corpus op does and read by the per-key path; no
    # window, filter or verdict over a memoized structure, and no knot
    # vector, gets an entry of its own
    import numpy as np

    from tmeshkit import dualcompat, splines, suitability, verify
    from tmeshkit.anchors import (anchor_set, global_knot_vector,
                                  index_support, local_knot_vector)
    from tmeshkit.topology import find_tjunctions

    seen = set()
    for sub, built in corpus200["meshes"][:24]:
        m = verify.replay_prefix(built, len(built.refinement_log))
        ok = {name: check(m)[0] for name, check in (
            ("admissible", is_admissible), ("aas", suitability.is_aas),
            ("sgas", suitability.is_sgas), ("wgas", suitability.is_wgas),
            ("sdc", dualcompat.is_sdc), ("wdc", dualcompat.is_wdc))}
        if ok["sgas"]:
            assert all(suitability.atj_union(m, i).subset(
                suitability.gtj_union(m, i)) for i in range(m.dim))
        if ok["sdc"]:
            assert splines.linear_independence_rank(m).independent
        if ok["wdc"]:
            assert verify.partition_of_unity(m, samples=100, seed=sub) < 1e-10
        seen |= {(m.dim, name, v) for name, v in ok.items()}
        for a in anchor_set(m):
            for j in range(m.dim):
                local_knot_vector(m, a, j)
            index_support(m, a)
        for t in find_tjunctions(m):
            suitability.gtj(m, t)
        whole = tuple((0, n) for n in m.domain.extents)
        for j in range(m.dim):
            global_knot_vector(m, whole, j)
        _assert_memo_keys_name_structures(m)
        masks = m._memo["skeleton_mask"]
        assert len(masks) == m.dim
        for k, mask in enumerate(masks):
            assert not mask.flags.writeable
            paint = np.zeros(mask.shape, dtype=bool)
            for e in m.entities[(k,)]:
                paint[tuple(slice(2 * a, 2 * b + 1) for a, b in e)] = True
            assert np.array_equal(mask, paint)
    # every branch above ran on both dimensions
    assert {(d, name, True) for d in (2, 3)
            for name in ("sgas", "sdc", "wdc")} <= seen


def test_knot_vector_memo_stays_bounded_along_refinement_chains():
    # three 3-D chains of up to 60 seeded bisections (seed 8 runs out of
    # options after 56), each step read as a corpus op reads it: the
    # knot vectors read on the step, per key for the junctions without a
    # carried row and for admissibility, leave no entry, so every memo
    # keeps one entry per structure
    from tmeshkit import verify
    from tmeshkit.anchors import anchor_arrays
    from tmeshkit.suitability import is_wgas

    steps = 0
    for s in (7, 8, 9):
        mesh = verify.random_admissible_mesh(s, dim=3, max_steps=0)
        rng = random.Random(s)
        for _ in range(60):
            options = verify.bisection_options(mesh, range(3))
            if not options:
                break
            mesh = subdiv(mesh, *rng.choice(options))
            anchor_arrays(mesh)
            is_wgas(mesh)
            is_admissible(mesh)
            _assert_memo_keys_name_structures(mesh)
            steps += 1
    assert steps == 60 + 56 + 60, steps


def test_orth_entities():
    mesh = grid2d()
    everything = set().union(*mesh.entities.values())
    assert orth_entities(mesh, ()) == {e for e in everything
                                       if all(a < b for a, b in e)}
    assert orth_entities(mesh, (1, 0)) == {e for e in everything
                                           if all(a == b for a, b in e)}
    mesh3 = build_framed_mesh((1, 1, 1), [[0, 2], [0, 2], [0, 2]])
    faces = orth_entities(mesh3, (1,))
    assert faces
    assert all(a == b for f in faces for k, (a, b) in enumerate(f) if k == 1)
    # hanging vertices appear in the full vertex set
    mesh10, info = fx.opposing_hanging_pair(1, 1)
    m, n = info["m"], info["n"]
    verts = orth_entities(mesh10, (0, 1))
    assert ((m, m), (n, n)) in verts and ((m + 1, m + 1), (n, n)) in verts


def test_admissibility():
    ok, violations = is_admissible(grid2d())
    assert not ok
    assert ("slice_not_in_skeleton", 0, 1) in violations

    mesh = build_framed_mesh((1, 1), [[0, 2, 4], [0, 2, 4]])
    assert is_admissible(mesh)[0]

    fig7, _ = fx.running_example_3d()
    assert is_admissible(fig7)[0]


def test_admissibility_reports_a_junction_in_the_frame():
    # degree 5 widens the frame to 3 around the complex of a degree-1
    # mesh, so the junction at x = 3 of the frame-extended bisection
    # lies in it
    m = build_framed_mesh((1, 1), [[0, 2, 4, 6, 8, 10]] * 2)
    m = subdiv(m, ((1, 3), (3, 5)), 1)
    wide = TMesh(IndexDomain((12, 12), (5, 5)), m.breakpoints, m.entities)
    assert is_admissible(wide) == (False, (
        ("slice_not_in_skeleton", 0, 2), ("slice_not_in_skeleton", 0, 10),
        ("slice_not_in_skeleton", 1, 2), ("slice_not_in_skeleton", 1, 10),
        ("tjunction_in_frame", 0, ((3, 3), (4, 4)))))


def test_three_direction_assumption():
    with pytest.raises(DimensionTooSmall):
        check_three_direction_assumption(grid2d())
    cube = build_framed_mesh((1, 1, 1), [[0, 2, 4], [0, 2, 4], [0, 2, 4]])
    assert check_three_direction_assumption(cube)
    refined, info = fx.flat_block_center_split()
    assert not check_three_direction_assumption(info["initial"])
    meshes = [cube, refined, info["initial"], fx.running_example_3d()[0],
              fx.crossing_hanging_edges((3, 2, 1))[0]]
    meshes += [m for _, m in mesh_stream(17, 12, dim=3, max_steps=20)]
    verdicts = [check_three_direction_assumption(m) for m in meshes]
    assert True in verdicts and False in verdicts
    assert verdicts == [_three_directions_by_scan(m) for m in meshes]


def test_three_direction_assumption_with_cells_across_the_frame():
    # tensor meshes on random breakpoints, in 3-D and 4-D, so cells
    # straddle the frame boundary and count as no one's neighbor, then a
    # few bisections of active cells; none of these meshes is admissible
    rng = random.Random(18)
    verdicts, straddling = [], 0
    for trial in range(48):
        d = 3 + trial % 2
        extents = [rng.randint(5, 9) for _ in range(d)]
        degrees = [rng.choice((1, 2, 3)) for _ in range(d)]
        domain = IndexDomain(extents, degrees)
        inner = [sorted(rng.sample(range(1, n), rng.randint(2, 5 - d // 2)))
                 for n in extents]
        mesh = create_tensor_mesh(domain, [[0, *b, n]
                                           for b, n in zip(inner, extents)])
        active = domain.active_spans()
        for _ in range(3):
            options = [(c, k) for c in sorted(mesh.cells)
                       if hull_inside(c, active) for k in range(d)
                       if (c[k][1] - c[k][0]) % 2 == 0]
            if options:
                mesh = subdiv(mesh, *rng.choice(options))
        straddling += any(a < lo < b or a < hi < b for c in mesh.cells
                          for (a, b), (lo, hi) in zip(c, active))
        verdicts.append(check_three_direction_assumption(mesh))
        assert verdicts[-1] == _three_directions_by_scan(mesh), trial
    assert True in verdicts and False in verdicts and straddling > 24


def test_three_direction_check_peak_memory_near_the_lattice_limit():
    # a 3-D domain near the lattice limit: the check looks cells up and
    # builds no lattice raster
    import tracemalloc

    domain = IndexDomain((100, 100, 200), (1, 1, 1))
    mesh = create_tensor_mesh(domain, [(0, 1, 50, 99, 100)] * 2
                              + [(0, 1, 100, 199, 200)])
    points = math.prod(2 * n + 1 for n in domain.extents)
    assert points > 0.95 * MAX_LATTICE_POINTS
    tracemalloc.start()
    try:
        assert check_three_direction_assumption(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * points, peak / points


def _three_directions_by_scan(mesh):
    cells = [c for c in mesh.cells if hull_inside(c, mesh.domain.active_spans())]

    def neighbour(q, i):
        return any((o[i][1] == q[i][0] or o[i][0] == q[i][1]) and all(
            k == i or max(o[k][0], q[k][0]) < min(o[k][1], q[k][1])
            for k in range(mesh.dim)) for o in cells)

    return all(sum(neighbour(q, i) for i in range(mesh.dim)) >= 3 for q in cells)


def test_find_cell_containing():
    mesh = refined2d()
    assert find_cell_containing(mesh, (Fraction(5, 2), 3)) == ((2, 3), (2, 4))
    with pytest.raises(MeshError):
        find_cell_containing(mesh, (2, 3))  # on a face, not interior
    tensor = create_tensor_mesh(IndexDomain((6, 6), (1, 1)))
    with pytest.raises(DimensionMismatch):
        find_cell_containing(tensor, (Fraction(5, 2),))  # zip would truncate


def test_find_cell_containing_equals_a_fraction_scan(corpus200):
    # random rational points of the closed domain and one step past it,
    # and points of the lower-dimensional entities, which lie on a face
    # of every cell around them; the lookup compares lattice integers,
    # the oracle scans the cells with Fractions
    from tmeshkit import verify

    meshes = [m for _, m in corpus200["meshes"][:16]]
    meshes += [fx.corner_cascade()[0],
               verify.random_admissible_mesh(3, dim=4, max_steps=12),
               cross_mesh(16)]
    assert {m.dim for m in meshes} == {2, 3, 4}
    rng = random.Random(2718)
    faces = outside = 0
    for mesh in meshes:
        cells = sorted(mesh.cells)
        lower = sorted(e for kappa, bucket in mesh.entities.items() if kappa
                       for e in bucket)
        for _ in range(150):
            q = rng.choice((1, 2, 3, 7))
            out = False
            if rng.random() < 0.3:
                point = tuple(Fraction(a) if a == b else Fraction(
                    rng.randint(a * 2 * q + 1, b * 2 * q - 1), 2 * q)
                    for a, b in rng.choice(lower))
            else:   # one step 1/q past the closed domain on either side
                point = tuple(Fraction(rng.randint(-1, n * q + 1), q)
                              for n in mesh.domain.extents)
                out = any(not 0 <= x <= n
                          for x, n in zip(point, mesh.domain.extents))
            inside = [c for c in cells
                      if all(a < x < b for (a, b), x in zip(c, point))]
            if inside:
                assert [find_cell_containing(mesh, point)] == inside
            else:
                faces += not out
                outside += out
                text = ", ".join(map(str, point))
                with pytest.raises(MeshError) as exc:
                    find_cell_containing(mesh, point)
                assert str(exc.value) == f"no cell strictly contains ({text})"
    assert faces > 100 and outside > 50


class _Unscannable(frozenset):
    """A cell bucket that answers membership and refuses iteration."""

    def __iter__(self):
        raise AssertionError("the cells were scanned")


def test_find_cell_containing_iterates_no_cell():
    data = resources.files("tmeshkit").joinpath("data")
    meshes = [cross_mesh(64), random_admissible_mesh(5, dim=4, max_steps=14)]
    meshes += [load_mesh(path) for path in sorted(
        data.iterdir(), key=lambda path: path.name)
        if path.name.endswith(".json")]
    assert {m.dim for m in meshes} == {2, 3, 4}
    for mesh in meshes:
        sealed = TMesh(mesh.domain, mesh.breakpoints,
                       {**mesh.entities, (): _Unscannable(mesh.cells)})
        extents = mesh.domain.extents
        for cell in mesh.cells:
            middle = tuple(Fraction(a + b, 2) for a, b in cell)
            assert find_cell_containing(sealed, middle) == cell
            # a face point, a corner, and points past the closed domain
            probes = [(cell[0][0],) + middle[1:],
                      tuple(a for a, _ in cell),
                      (Fraction(-1, 3),) + middle[1:],
                      middle[:-1] + (extents[-1] + Fraction(1, 2),),
                      middle[:-1] + (extents[-1] + 1,)]
            for point in probes:
                text = ", ".join(str(Fraction(x)) for x in point)
                with pytest.raises(MeshError) as exc:
                    find_cell_containing(sealed, point)
                assert str(exc.value) == f"no cell strictly contains ({text})"


def test_replay_determinism():
    from tmeshkit.verify import random_admissible_mesh, replay_prefix

    mesh = random_admissible_mesh(11, dim=2, max_steps=12)
    replayed = replay_prefix(mesh, len(mesh.refinement_log))
    assert replayed.entities == mesh.entities
