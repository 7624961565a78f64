import numpy as np
import pytest

from phasefrac.driver import RunConfig
from phasefrac.mesh import (
    ConstraintSet,
    build_lshape_mesh,
    build_rectangle_mesh,
    mark_lshape_boundaries,
    refine_cells,
    refine_global,
)
from phasefrac.presets import build_problem

from digest_util import mesh_digest
from reference_util import compute_hanging_constraints


def domain_area(mesh):
    return float(np.sum(mesh.cell_size[:, 0] * mesh.cell_size[:, 1]))


def test_single_cell_unit_square():
    mesh = build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), (1, 1))
    assert mesh.n_cells == 1
    assert mesh.n_nodes == 4
    assert mesh.h_min == pytest.approx(np.sqrt(2.0))
    assert len(mesh.hanging) == 0


def test_two_global_refines_give_40x40_grid():
    mesh = build_rectangle_mesh((-10.0, -10.0), (20.0, 20.0), (10, 10), global_refines=2)
    assert mesh.n_cells == 1600
    assert np.allclose(mesh.cell_size, 0.5)
    assert mesh.h_min == pytest.approx(0.5 * np.sqrt(2.0))


def test_box_refined_mesh_reaches_reported_resolution():
    # 2 global + 5 box levels: finest cell width 20/(10*2^7)
    mesh = build_rectangle_mesh(
        (-10.0, -10.0), (20.0, 20.0), (10, 10), global_refines=2,
        refine_boxes=[((-4.0, 4.0, -4.0, 4.0), 5)],
    )
    assert mesh.h_min == pytest.approx(20.0 / (10 * 2**7) * np.sqrt(2.0))
    assert mesh.h_min == pytest.approx(0.02209708691207961)
    assert mesh.n_cells == 266404
    assert domain_area(mesh) == pytest.approx(400.0, rel=1e-14)
    assert len(mesh.hanging) == 2016
    assert mesh_digest(mesh) == "3813af7aa487beba1e8e8592ca25b28787a2046b71caba59d5474920e62ae276"


def test_refine_global_quarters_cells_and_halves_h():
    mesh = build_rectangle_mesh((0.0, 0.0), (3.0, 2.0), (3, 2))
    fine = refine_global(mesh)
    assert fine.n_cells == 4 * mesh.n_cells
    assert fine.h_min == pytest.approx(0.5 * mesh.h_min)
    assert domain_area(fine) == pytest.approx(6.0, rel=1e-14)


def test_one_irregularity_enforced_by_closure():
    mesh = build_rectangle_mesh((0.0, 0.0), (4.0, 4.0), (4, 4))
    marks = np.zeros(mesh.n_cells, dtype=bool)
    marks[0] = True
    fine = refine_cells(mesh, marks)
    fine = refine_cells(fine, np.arange(fine.n_cells) == 0)
    # every edge neighbor pair differs by at most one level
    levels = {}
    for c in range(fine.n_cells):
        x0, y0 = fine.cell_origin[c]
        sx, sy = fine.cell_size[c]
        levels[(x0, y0, sx)] = fine.cell_level[c]
    for c in range(fine.n_cells):
        lo = fine.cell_origin[c]
        hi = lo + fine.cell_size[c]
        for d in range(fine.n_cells):
            if c == d:
                continue
            lo2 = fine.cell_origin[d]
            hi2 = lo2 + fine.cell_size[d]
            touch_x = np.isclose(hi[0], lo2[0]) or np.isclose(hi2[0], lo[0])
            touch_y = np.isclose(hi[1], lo2[1]) or np.isclose(hi2[1], lo[1])
            overlap_y = min(hi[1], hi2[1]) - max(lo[1], lo2[1]) > 1e-12
            overlap_x = min(hi[0], hi2[0]) - max(lo[0], lo2[0]) > 1e-12
            if (touch_x and overlap_y) or (touch_y and overlap_x):
                assert abs(int(fine.cell_level[c]) - int(fine.cell_level[d])) <= 1


def test_hanging_constraints_uniform_mesh_empty():
    mesh = build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), (4, 4), global_refines=1)
    assert len(compute_hanging_constraints(mesh)) == 0


def test_hanging_constraints_weights_and_midpoint():
    mesh = build_rectangle_mesh((0.0, 0.0), (2.0, 1.0), (2, 1))
    marks = np.array([True, False])
    fine = refine_cells(mesh, marks)
    cons = fine.hanging
    assert len(cons) >= 1
    assert np.allclose(cons.weights, 0.5)
    for k in range(len(cons)):
        node = fine.nodes[cons.nodes[k]]
        m = fine.nodes[cons.masters[k]]
        assert np.allclose(node, 0.5 * (m[0] + m[1]))
    # masters are never themselves hanging
    assert not np.isin(cons.masters.ravel(), cons.nodes).any()


def test_hanging_interpolation_reproduces_linear_fields():
    mesh = build_rectangle_mesh(
        (0.0, 0.0), (2.0, 2.0), (2, 2), refine_boxes=[((0.0, 1.0, 0.0, 1.0), 2)],
    )
    cons = mesh.hanging
    assert len(cons) > 0
    f = 0.7 + 1.3 * mesh.nodes[:, 0] - 2.1 * mesh.nodes[:, 1]
    interp = (f[cons.masters] * cons.weights).sum(axis=1)
    assert np.allclose(interp, f[cons.nodes], atol=1e-14)


def test_refine_box_outside_domain_rejected():
    with pytest.raises(ValueError, match="outside"):
        build_rectangle_mesh(
            (0.0, 0.0), (1.0, 1.0), (2, 2), refine_boxes=[((0.5, 1.5, 0.0, 1.0), 1)],
        )


def test_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        build_rectangle_mesh((0.0, 0.0), (0.0, 1.0), (1, 1))
    with pytest.raises(ValueError):
        build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), (0, 3))
    with pytest.raises(ValueError):
        build_rectangle_mesh(
            (0.0, 0.0), (1.0, 1.0), (2, 2), refine_boxes=[((0.4, 0.4, 0.0, 1.0), 1)],
        )


def test_boundary_markers_cover_rectangle():
    mesh = build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), (4, 4), global_refines=1)
    tol = 1e-12
    n = 0
    n += mesh.mark_boundary("bottom", lambda x, y: y < tol)
    n += mesh.mark_boundary("top", lambda x, y: y > 1 - tol)
    n += mesh.mark_boundary("left", lambda x, y: x < tol)
    n += mesh.mark_boundary("right", lambda x, y: x > 1 - tol)
    assert n == len(mesh.boundary_cells)
    assert (mesh.boundary_markers >= 0).all()
    cells, edges = mesh.marked_facets("top")
    assert np.allclose(mesh.facet_midpoints(cells, edges)[:, 1], 1.0)


def test_marked_facets_unknown_name():
    mesh = build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), (1, 1))
    with pytest.raises(ValueError, match="marker"):
        mesh.marked_facets("nope")


def test_lshape_cell_counts_and_area():
    assert build_lshape_mesh(0).n_cells == 3
    assert build_lshape_mesh(2).n_cells == 48
    mesh5 = build_lshape_mesh(5)
    assert mesh5.h_min == pytest.approx(250.0 / 2**5 * np.sqrt(2.0))
    assert mesh5.h_min == pytest.approx(11.048543456039804, rel=1e-12)
    assert domain_area(mesh5) == pytest.approx(3 * 250.0**2, rel=1e-14)
    assert mesh_digest(build_lshape_mesh(3)) == (
        "938034f71d02bc0519e4ea33299f1796f5c794e442f7d911c94c36bba48a536e"
    )


def test_lshape_markers():
    mesh = build_lshape_mesh(2)
    for name in ("bottom", "top", "left", "right", "reentrant", "strip"):
        cells, edges = mesh.marked_facets(name)
        assert len(cells) > 0, name
    cells, edges = mesh.marked_facets("strip")
    mids = mesh.facet_midpoints(cells, edges)
    # strip facets sit on the horizontal re-entrant edge near x = 500
    assert np.allclose(mids[:, 1], 250.0)
    assert mids[:, 0].min() > 400.0
    assert mids[:, 0] == pytest.approx([468.75])
    # bottom is the measurement boundary of the column
    cells, edges = mesh.marked_facets("bottom")
    assert np.allclose(mesh.facet_midpoints(cells, edges)[:, 1], 0.0)


def test_lshape_remark_after_manual_refinement():
    mesh = build_lshape_mesh(1)
    mesh2 = refine_global(mesh)
    mark_lshape_boundaries(mesh2)
    cells, _ = mesh2.marked_facets("strip")
    assert len(cells) >= 1


def test_mesh_build_deterministic():
    a = build_rectangle_mesh(
        (-10.0, -10.0), (20.0, 20.0), (10, 10), global_refines=1,
        refine_boxes=[((-4.0, 4.0, -4.0, 4.0), 2)],
    )
    b = build_rectangle_mesh(
        (-10.0, -10.0), (20.0, 20.0), (10, 10), global_refines=1,
        refine_boxes=[((-4.0, 4.0, -4.0, 4.0), 2)],
    )
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.cells, b.cells)
    assert np.array_equal(a.hanging.nodes, b.hanging.nodes)


def test_constraint_set_empty():
    cons = ConstraintSet.empty()
    assert len(cons) == 0


# Digests of the preset meshes as built by the dict-lattice implementation
# that preceded the vectorized lookups: every array, dtype and shape must
# stay identical so that every solve on them stays identical too.
PRESET_MESH_DIGESTS = {
    # the three benchmark meshes
    ("sneddon2d", 4, None): (288, "115b691f0b5d4545e9ce79b0aed28f4d2c762b929f7bd19f9f38f8bedb1e9bda"),
    ("sens", 0, None): (0, "328bc69c428fbb62d0653cc8fe2a94a027428ab9bccbeef991084e57be5d27b0"),
    ("lpanel", None, 5): (0, "e1692396359a0c2d8bdd8564e467aca2aae676f2517f26c39336cebe71ce1388"),
    # hanging nodes on the SENS corridor, and one more Sneddon level
    ("sens", 1, None): (49, "e2c97e5318a54f00460a4717a9d48cf94911210f3b566a4dee08cc2b3b44bcaa"),
    ("sneddon2d", 5, None): (384, "eab518a27a216fc5bea2ad25f3a3995dd11c8fe0d8a4c49ea8b52c0264890ede"),
}


@pytest.mark.parametrize("key", sorted(PRESET_MESH_DIGESTS, key=str), ids=str)
def test_preset_meshes_bit_identical(key):
    benchmark, local_refines, global_refines = key
    problem, _ = build_problem(RunConfig(
        benchmark=benchmark, local_refines=local_refines, global_refines=global_refines,
    ))
    n_hanging, digest = PRESET_MESH_DIGESTS[key]
    assert len(problem.mesh.hanging) == n_hanging
    assert mesh_digest(problem.mesh) == digest
