import numpy as np
import pytest
import scipy.sparse as sp

from phasefrac.driver import RunConfig
from phasefrac.fem import (
    DofMap,
    apply_hanging_to_vector,
    assemble_mass_diagonal,
    build_dof_map,
    condense_system,
    constraint_operator,
    drop_columns,
    eliminated_dofs,
    hanging_interpolation,
)
from phasefrac.kernels import _DETA_TAB, _DXI_TAB, _QP, AssemblyPlan
from phasefrac.mesh import ConstraintSet, build_rectangle_mesh, refine_cells
from phasefrac.presets import build_problem

from digest_util import array_digest


def test_dof_counts_single_cell():
    mesh = build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), (1, 1))
    dm = build_dof_map(mesh)
    assert dm.n_u == 8
    assert dm.n_phi == 4
    assert dm.n_dofs == 12


def test_dof_counts_two_cells():
    mesh = build_rectangle_mesh((0.0, 0.0), (2.0, 1.0), (2, 1))
    dm = build_dof_map(mesh)
    assert mesh.n_nodes == 6
    assert dm.n_u == 12
    assert dm.n_phi == 6


def test_dof_ordering_u_first_then_phi():
    mesh = build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), (2, 2))
    dm = build_dof_map(mesh)
    n = mesh.n_nodes
    assert dm.u_dof(3, 0) == 6
    assert dm.u_dof(3, 1) == 7
    assert dm.phi_dof(0) == 2 * n
    assert dm.u_slice == slice(0, 2 * n)
    assert dm.phi_slice == slice(2 * n, 3 * n)
    # contiguous enumeration: cell dofs exactly cover 0..3n-1
    assert set(dm.cell_dofs.ravel()) == set(range(3 * n))


def test_quadrature_rule():
    # the kernels' 2x2 Gauss points, each weighted by a quarter of the area
    pts, wts = _QP, np.ones(4)
    g = 1.0 / np.sqrt(3.0)
    assert np.allclose(np.abs(pts), g)
    # exact for cubics per coordinate: int_{-1}^{1} x^2 dx = 2/3
    val = sum(w * p[0] ** 2 * p[1] ** 2 for p, w in zip(pts, wts))
    assert val == pytest.approx(4.0 / 9.0, rel=1e-14)
    val3 = sum(w * p[0] ** 3 for p, w in zip(pts, wts))
    assert val3 == pytest.approx(0.0, abs=1e-15)


def test_mass_diagonal_single_cell():
    mesh = build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), (1, 1))
    dm = build_dof_map(mesh)
    md = assemble_mass_diagonal(mesh, dm)
    assert np.allclose(md, 0.25)


def test_mass_diagonal_two_cells_shared_edge():
    mesh = build_rectangle_mesh((0.0, 0.0), (2.0, 1.0), (2, 1))
    dm = build_dof_map(mesh)
    md = assemble_mass_diagonal(mesh, dm)
    # corner nodes 0.25, the two shared mid-edge nodes 0.5
    assert sorted(np.round(md, 12).tolist()).count(0.5) == 2
    assert md.sum() == pytest.approx(2.0)


def test_mass_diagonal_positive_sums_to_area():
    mesh = build_rectangle_mesh(
        (-10.0, -10.0), (20.0, 20.0), (10, 10), global_refines=1,
        refine_boxes=[((-4.0, 4.0, -4.0, 4.0), 2)],
    )
    dm = build_dof_map(mesh)
    md = assemble_mass_diagonal(mesh, dm, mesh.hanging)
    assert (md > 0.0).all()
    # hanging rows are folded into masters and carry a 1.0 placeholder,
    # so the true mass lives on the free nodes and sums to the area
    free = np.ones(mesh.n_nodes, dtype=bool)
    free[mesh.hanging.nodes] = False
    assert np.allclose(md[~free], 1.0)
    assert md[free].sum() == pytest.approx(400.0, rel=1e-12)


def test_linear_field_gradient_exact():
    # Q1 interpolation of a + b x + c y differentiates exactly
    mesh = build_rectangle_mesh((0.0, 0.0), (2.0, 1.0), (3, 2))
    a, b, c = 0.3, -1.2, 2.5
    f = a + b * mesh.nodes[:, 0] + c * mesh.nodes[:, 1]
    for cell in range(mesh.n_cells):
        fx = f[mesh.cells[cell]]
        dx, dy = mesh.cell_size[cell]
        # every row of the kernel derivative tables is one Gauss point
        assert _DXI_TAB @ fx * (2.0 / dx) == pytest.approx(np.full(4, b), rel=1e-13)
        assert _DETA_TAB @ fx * (2.0 / dy) == pytest.approx(np.full(4, c), rel=1e-13)


def _hanging_mesh():
    mesh = build_rectangle_mesh((0.0, 0.0), (2.0, 1.0), (2, 1))
    return refine_cells(mesh, np.array([True, False]))


def test_hanging_interpolation_rows():
    mesh = _hanging_mesh()
    cons = mesh.hanging
    H = hanging_interpolation(cons, mesh.n_nodes)
    assert H is hanging_interpolation(cons, mesh.n_nodes)  # built once
    assert np.allclose(np.asarray(H.sum(axis=1)).ravel(), 1.0)
    # no column of a hanging node; identity rows on unconstrained nodes
    assert not np.isin(H.indices, cons.nodes).any()
    free = np.setdiff1d(np.arange(mesh.n_nodes), cons.nodes)
    assert (H[free] != sp.eye(mesh.n_nodes, format="csr")[free]).nnz == 0
    for k, node in enumerate(cons.nodes):
        row = H[node]
        assert np.array_equal(row.indices, np.sort(cons.masters[k]))
        assert np.array_equal(row.data, cons.weights[k])


def _chain_constraints():
    # nodes 0 and 1 are free; 2 hangs on (0, 1), 3 on (0, 2) and 4 on
    # (3, 1): a two-link chain that balanced meshes never produce
    return ConstraintSet(
        nodes=np.array([2, 3, 4]),
        masters=np.array([[0, 1], [0, 2], [3, 1]]),
        weights=np.array([[0.5, 0.5], [0.25, 0.75], [0.5, 0.5]]),
    )


def _interpolate_node(cons, values, node):
    """Per-node recursive interpolation, the definition H must resolve."""
    k = list(cons.nodes).index(node) if node in cons.nodes else None
    if k is None:
        return values[node]
    return sum(w * _interpolate_node(cons, values, int(m))
               for m, w in zip(cons.masters[k], cons.weights[k]))


def test_hanging_interpolation_resolves_chains():
    cons = _chain_constraints()
    H = hanging_interpolation(cons, 5)
    assert not np.isin(H.indices, cons.nodes).any()
    rng = np.random.default_rng(2)
    v = rng.standard_normal(5)
    expect = [_interpolate_node(cons, v, i) for i in range(5)]
    assert H @ v == pytest.approx(expect, rel=1e-14)
    # projection of a state vector acts per field through the same H
    dm = DofMap(n_nodes=5, cell_dofs=np.zeros((0, 12), dtype=np.int64))
    vec = rng.standard_normal(dm.n_dofs)
    apply_hanging_to_vector(vec, dm, cons)
    for field in (vec[0:10:2], vec[1:10:2], vec[10:]):
        assert field == pytest.approx([_interpolate_node(cons, field, i) for i in range(5)], rel=1e-14)


def test_hanging_interpolation_rejects_cycles():
    cons = ConstraintSet(
        nodes=np.array([1, 2]),
        masters=np.array([[0, 2], [0, 1]]),
        weights=np.full((2, 2), 0.5),
    )
    with pytest.raises(ValueError, match="cycle"):
        hanging_interpolation(cons, 3)


# Digests of P, the mass diagonal and a projected random state on the
# sneddon-itl mesh, as produced by the per-row dict-chain implementation
# that H replaced.
SNEDDON_ITL_DIGESTS = dict(
    P="594886345a8572edb0ecf019510ef64abeec9d014f64961583e4bb7e423cea78",
    mass="1c96645c5dee9aa2864efc5bc62758a1cd403eb6a4c46b1c1b76b6104612e18d",
    project="2e686fb68e93c6d437932d3bd2eff37be9d2883bd2a8975c9f1948e2e0631c73",
)


def test_constraint_arrays_bit_identical_on_sneddon_itl_mesh():
    problem, _ = build_problem(RunConfig(benchmark="sneddon2d", local_refines=4))
    mesh = problem.mesh
    assert len(mesh.hanging) == 288
    dm = build_dof_map(mesh)
    rng = np.random.default_rng(7)
    fixed = rng.random(dm.n_dofs) < 0.1
    P = constraint_operator(dm, mesh.hanging, fixed)
    assert array_digest(P.indptr, P.indices, P.data) == SNEDDON_ITL_DIGESTS["P"]
    md = assemble_mass_diagonal(mesh, dm, mesh.hanging)
    assert array_digest(md) == SNEDDON_ITL_DIGESTS["mass"]
    vec = rng.standard_normal(dm.n_dofs)
    apply_hanging_to_vector(vec, dm, mesh.hanging)
    assert array_digest(vec) == SNEDDON_ITL_DIGESTS["project"]


def test_dropped_active_columns_equal_operator_built_per_mask():
    # The solver builds P once from the Dirichlet mask and eliminates each
    # active set by dropping its phase-field columns.  That operator and
    # its condensed system must equal, array for array, the ones built
    # with the active set folded into the fixed mask.
    problem, _ = build_problem(RunConfig(benchmark="sneddon2d", local_refines=4))
    mesh = problem.mesh
    dm = build_dof_map(mesh)
    n = dm.n_nodes
    plan = AssemblyPlan(dm.cell_dofs, dm.n_dofs)
    rng = np.random.default_rng(12)
    for _ in range(3):
        fixed = rng.random(dm.n_dofs) < 0.1
        P = constraint_operator(dm, mesh.hanging, fixed)
        # the classifiable dofs (non-empty columns) are the phase-field
        # dofs that are neither Dirichlet nor hanging
        expect = ~fixed[2 * n:]
        expect[mesh.hanging.nodes] = False
        assert np.array_equal(~eliminated_dofs(P)[2 * n:], expect)
        active = 2 * n + np.flatnonzero(rng.random(n) < 0.3)
        Pa = drop_columns(P, active)
        fixed_active = fixed.copy()
        fixed_active[active] = True
        ref = constraint_operator(dm, mesh.hanging, fixed_active)
        for got, want in ((Pa.indptr, ref.indptr), (Pa.indices, ref.indices), (Pa.data, ref.data)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        matrix = plan.matrix_from_blocks(rng.standard_normal((len(mesh.cells), 144)))
        rhs = rng.standard_normal(dm.n_dofs)
        (got_m, got_r), (want_m, want_r) = (condense_system(matrix, rhs, op) for op in (Pa, ref))
        for got, want in (
            (got_m.indptr, want_m.indptr), (got_m.indices, want_m.indices),
            (got_m.data, want_m.data), (got_r, want_r),
        ):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_constraint_operator_shapes_and_identity():
    mesh = build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), (2, 2))
    dm = build_dof_map(mesh)
    fixed = np.zeros(dm.n_dofs, dtype=bool)
    P = constraint_operator(dm, mesh.hanging, fixed)
    assert P.shape == (dm.n_dofs, dm.n_dofs)
    assert (P != sp.eye(dm.n_dofs)).nnz == 0  # no constraints -> identity
    assert not eliminated_dofs(P).any()


def test_condense_identity_when_unconstrained():
    mesh = build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), (2, 2))
    dm = build_dof_map(mesh)
    rng = np.random.default_rng(3)
    A = sp.csr_matrix(rng.standard_normal((dm.n_dofs, dm.n_dofs)))
    r = rng.standard_normal(dm.n_dofs)
    P = constraint_operator(dm, mesh.hanging, np.zeros(dm.n_dofs, dtype=bool))
    Ac, rc = condense_system(A, r, P)
    assert np.allclose(Ac.toarray(), A.toarray())
    assert np.allclose(rc, r)


def test_condense_dirichlet_dof_2x2_hand_check():
    # hand elimination: fix dof 1 of [[4, 1], [1, 3]] x = [5, 7]
    mesh = build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), (1, 1))
    dm = build_dof_map(mesh)
    A = sp.eye(dm.n_dofs, format="csr").tolil()
    A[0, 0], A[0, 2], A[2, 0], A[2, 2] = 4.0, 1.0, 1.0, 3.0
    r = np.zeros(dm.n_dofs)
    r[0], r[2] = 5.0, 7.0
    fixed = np.zeros(dm.n_dofs, dtype=bool)
    fixed[2] = True
    P = constraint_operator(dm, mesh.hanging, fixed)
    Ac, rc = condense_system(sp.csr_matrix(A), r, P)
    assert Ac[0, 0] == pytest.approx(4.0)
    assert Ac[0, 2] == 0.0 and Ac[2, 0] == 0.0
    assert Ac[2, 2] == pytest.approx(1.0)
    assert rc[0] == pytest.approx(5.0)
    assert rc[2] == 0.0
    # solving leaves the constrained dof unchanged
    x = np.array(np.linalg.solve(Ac.toarray(), rc))
    assert x[0] == pytest.approx(5.0 / 4.0)
    assert x[2] == 0.0


def test_condensed_update_zero_on_eliminated_dofs():
    mesh = _hanging_mesh()
    dm = build_dof_map(mesh)
    rng = np.random.default_rng(11)
    n = dm.n_dofs
    A = sp.csr_matrix(rng.standard_normal((n, n)) + 10.0 * np.eye(n))
    r = rng.standard_normal(n)
    fixed = np.zeros(n, dtype=bool)
    fixed[[0, 1, 5]] = True
    P = constraint_operator(dm, mesh.hanging, fixed)
    Ac, rc = condense_system(A, r, P)
    x = np.linalg.solve(Ac.toarray(), rc)
    dx = P @ x
    assert np.allclose(dx[[0, 1, 5]], 0.0)
    # hanging dofs received the interpolated update
    cons = mesh.hanging
    nodes, masters, weights = cons.nodes, cons.masters, cons.weights
    for k, node in enumerate(nodes):
        hd = dm.phi_dof(node)
        md = dm.phi_dof(masters[k])
        assert dx[hd] == pytest.approx(float(weights[k] @ dx[md]), rel=1e-12)


def test_reduced_residual_folds_hanging_rows():
    mesh = _hanging_mesh()
    dm = build_dof_map(mesh)
    rng = np.random.default_rng(5)
    r = rng.standard_normal(dm.n_dofs)
    fixed = np.zeros(dm.n_dofs, dtype=bool)
    P = constraint_operator(dm, mesh.hanging, fixed)
    red = P.T @ r
    cons = mesh.hanging
    nodes, masters, weights = cons.nodes, cons.masters, cons.weights
    hd = dm.phi_dof(nodes[0])
    md = dm.phi_dof(masters[0])
    assert red[hd] == 0.0
    assert red[md[0]] == pytest.approx(r[md[0]] + weights[0][0] * r[hd])


def test_apply_hanging_interpolates_state():
    mesh = _hanging_mesh()
    dm = build_dof_map(mesh)
    vec = np.arange(dm.n_dofs, dtype=float)
    apply_hanging_to_vector(vec, dm, mesh.hanging)
    cons = mesh.hanging
    nodes, masters, weights = cons.nodes, cons.masters, cons.weights
    for k, node in enumerate(nodes):
        for dof, mdofs in (
            (dm.u_dof(node, 0), dm.u_dof(masters[k], 0)),
            (dm.u_dof(node, 1), dm.u_dof(masters[k], 1)),
            (dm.phi_dof(node), dm.phi_dof(masters[k])),
        ):
            assert vec[dof] == pytest.approx(float(weights[k] @ vec[mdofs]))


def test_fixed_mask_size_checked():
    mesh = build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), (1, 1))
    dm = build_dof_map(mesh)
    with pytest.raises(ValueError):
        constraint_operator(dm, mesh.hanging, np.zeros(3, dtype=bool))
