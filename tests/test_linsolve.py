"""GMRES and the LU-preconditioned two-stage solve against direct solves."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sps

from phasefrac import linsolve
from phasefrac.driver import RunConfig, run_incremental_loop, solver_settings_for
from phasefrac.fem import (
    build_dof_map,
    condense_system,
    constraint_operator,
    drop_columns,
)
from phasefrac.linsolve import gmres, solve_block_triangular
from phasefrac.material import Assembler, MaterialParams
from phasefrac.mesh import build_rectangle_mesh
from phasefrac.newton import factor_block
from phasefrac.presets import build_problem


def well_conditioned(rng, n):
    a = rng.standard_normal((n, n))
    return sp.csr_matrix(a + n * np.eye(n))


def test_identity_converges_immediately():
    mat = sp.eye(8, format="csr")
    b = np.arange(8.0)
    res = gmres(mat, b)
    assert res.converged
    assert res.n_iters <= 1
    assert np.allclose(res.x, b)


def test_zero_rhs_returns_zero():
    mat = sp.eye(5, format="csr")
    res = gmres(mat, np.zeros(5))
    assert res.converged and res.n_iters == 0
    assert np.all(res.x == 0.0)


def test_diagonal_system_exact():
    d = np.array([2.0, 4.0, 0.5, 8.0])
    mat = sp.diags(d).tocsr()
    b = np.array([1.0, 1.0, 1.0, 1.0])
    res = gmres(mat, b)
    assert res.converged
    assert np.allclose(res.x, 1.0 / d, atol=1e-12)


def test_gmres_matches_dense_lu_on_random_systems(monkeypatch):
    rng = np.random.default_rng(31)
    monkeypatch.setattr(linsolve, "REL_TOL", 1e-12)
    monkeypatch.setattr(linsolve, "RESTART", 60)
    for _ in range(30):
        n = rng.integers(5, 50)
        mat = well_conditioned(rng, int(n))
        b = rng.standard_normal(int(n))
        ref = np.linalg.solve(mat.toarray(), b)
        res = gmres(mat, b)
        assert res.converged
        assert np.linalg.norm(res.x - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))


def test_final_residual_meets_requested_tolerance(monkeypatch):
    rng = np.random.default_rng(33)
    mat = well_conditioned(rng, 30)
    b = rng.standard_normal(30)
    monkeypatch.setattr(linsolve, "REL_TOL", 1e-9)
    for precond in (None, sps.splu(mat.tocsc()).solve):
        res = gmres(mat, b, precond=precond)
        assert res.converged
        r = np.linalg.norm(b - mat @ res.x)
        assert r <= 1e-9 * np.linalg.norm(b) * (1.0 + 1e-6)


def sneddon_phi_block():
    # small pressure-driven setup; the trailing block of the Jacobian is
    # the screened-Laplacian-like phase-field operator
    mesh = build_rectangle_mesh((-1.0, -1.0), (2.0, 2.0), (8, 8))
    dofmap = build_dof_map(mesh)
    params = MaterialParams(
        mu=0.42, lam=0.28, gc=1.0, eps=0.1, kappa=1e-10,
        pressure=1e-3, split="none",
    )
    asm = Assembler(mesh, dofmap, params)
    n = dofmap.n_nodes
    rng = np.random.default_rng(34)
    state = np.empty(3 * n)
    state[: 2 * n] = 1e-3 * rng.standard_normal(2 * n)
    state[2 * n:] = rng.uniform(0.5, 1.0, n)
    matrix, rhs = asm.system(state, state[2 * n:].copy())
    return matrix.tocsr()[2 * n:, 2 * n:], rhs[2 * n:]


def test_preconditioning_reduces_iterations_on_phi_block(monkeypatch):
    block, rhs = sneddon_phi_block()
    monkeypatch.setattr(linsolve, "REL_TOL", 1e-10)
    plain = gmres(block, rhs)
    lu = gmres(block, rhs, precond=sps.splu(block.tocsc()).solve)
    assert plain.converged and lu.converged
    assert lu.n_iters <= 2 < plain.n_iters


def test_preconditioned_and_plain_solutions_agree(monkeypatch):
    block, rhs = sneddon_phi_block()
    monkeypatch.setattr(linsolve, "REL_TOL", 1e-12)
    ref = gmres(block, rhs)
    res = gmres(block, rhs, precond=sps.splu(block.tocsc()).solve)
    assert np.linalg.norm(res.x - ref.x) <= 1e-8 * np.linalg.norm(ref.x)


def test_max_iterations_reported_as_failure(monkeypatch):
    rng = np.random.default_rng(35)
    n = 60
    # shifted skew matrix needs many iterations; cap far below that
    a = rng.standard_normal((n, n))
    mat = sp.csr_matrix(a @ a.T + 0.01 * np.eye(n))
    b = rng.standard_normal(n)
    monkeypatch.setattr(linsolve, "MAX_ITERS", 3)
    monkeypatch.setattr(linsolve, "RESTART", 3)
    res = gmres(mat, b)
    assert not res.converged
    assert res.n_iters == 3


# ----------------------------------------------------------------------
# two-stage block-triangular solve
# ----------------------------------------------------------------------


def random_block_triangular(rng, n1, n2):
    a = rng.standard_normal((n1, n1)) + n1 * np.eye(n1)
    b = rng.standard_normal((n2, n2)) + n2 * np.eye(n2)
    c = rng.standard_normal((n2, n1))
    full = np.zeros((n1 + n2, n1 + n2))
    full[:n1, :n1] = a
    full[n1:, n1:] = b
    full[n1:, :n1] = c
    return sp.csr_matrix(full)


def blocks(mat, split):
    """(lead, coupling, trail) blocks of a block lower-triangular matrix."""
    csr = mat.tocsr()
    return csr[:split, :split], csr[split:, :split], csr[split:, split:]


def test_block_triangular_matches_dense_lu(monkeypatch):
    rng = np.random.default_rng(37)
    monkeypatch.setattr(linsolve, "REL_TOL", 1e-12)
    for _ in range(10):
        n1, n2 = int(rng.integers(4, 20)), int(rng.integers(4, 20))
        mat = random_block_triangular(rng, n1, n2)
        rhs = rng.standard_normal(n1 + n2)
        ref = np.linalg.solve(mat.toarray(), rhs)
        res = solve_block_triangular(*blocks(mat, n1), rhs)
        assert res.converged
        assert np.linalg.norm(res.x - ref) <= 1e-9 * max(1.0, np.linalg.norm(ref))


def lu_stages(mat, split):
    """The stage preconditioners the Newton solver builds: sparse LU
    factors of the two diagonal blocks."""
    lead, _, trail = blocks(mat, split)
    return factor_block(lead).solve, factor_block(trail).solve


def test_block_triangular_matches_monolithic_on_assembled_system(monkeypatch):
    # condensed phase-field Newton matrix is block lower-triangular in the
    # (u, phi) ordering; the two LU-preconditioned stages must agree with
    # one direct solve of the whole system
    mesh = build_rectangle_mesh((-1.0, -1.0), (2.0, 2.0), (6, 6))
    dofmap = build_dof_map(mesh)
    params = MaterialParams(
        mu=0.42, lam=0.28, gc=1.0, eps=0.1, kappa=1e-10,
        pressure=1e-3, split="none",
    )
    asm = Assembler(mesh, dofmap, params)
    n = dofmap.n_nodes
    rng = np.random.default_rng(38)
    state = np.empty(3 * n)
    state[: 2 * n] = 1e-3 * rng.standard_normal(2 * n)
    state[2 * n:] = rng.uniform(0.4, 1.0, n)
    matrix, rhs = asm.system(state, state[2 * n:].copy())
    fixed = np.zeros(dofmap.n_dofs, dtype=bool)
    left = np.isclose(mesh.nodes[:, 0], -1.0)
    fixed[2 * np.flatnonzero(left)] = True
    fixed[2 * np.flatnonzero(left) + 1] = True
    op = constraint_operator(dofmap, mesh.hanging, fixed)
    mat_red, rhs_red = condense_system(matrix, rhs, op)

    tol = 1e-10
    monkeypatch.setattr(linsolve, "REL_TOL", tol)
    mono = sps.spsolve(mat_red.tocsc(), rhs_red)
    two = solve_block_triangular(
        *blocks(mat_red, 2 * n), rhs_red,
        stage_preconds=lu_stages(mat_red, 2 * n),
    )
    assert two.converged
    assert np.linalg.norm(rhs_red - mat_red @ two.x) <= tol * np.linalg.norm(rhs_red) * 1.01
    assert np.linalg.norm(two.x - mono) <= 1e-8 * np.linalg.norm(mono)


def test_block_triangular_skips_negligible_stage(monkeypatch):
    rng = np.random.default_rng(39)
    monkeypatch.setattr(linsolve, "REL_TOL", 1e-10)
    mat = random_block_triangular(rng, 10, 10)
    # zero the coupling block so the trailing rhs stays exactly zero
    dense = mat.toarray()
    dense[10:, :10] = 0.0
    mat = sp.csr_matrix(dense)
    rhs = np.concatenate([rng.standard_normal(10), np.zeros(10)])
    res = solve_block_triangular(*blocks(mat, 10), rhs)
    assert res.converged
    assert np.all(res.x[10:] == 0.0)


def condensed_preset_system(config):
    """Condensed Newton system of a coarse preset after its first
    increment, with the active set that increment ended on."""
    problem, config = build_problem(config)
    result = run_incremental_loop(problem, config, solver_settings_for(config, problem.params))
    assert result.all_converged
    mesh, state = problem.mesh, result.state
    dofmap = build_dof_map(mesh)
    n = dofmap.n_nodes
    P = constraint_operator(dofmap, problem.constraints, problem.fixed)
    act = result.increments[-1].report.active
    Pa = drop_columns(P, 2 * n + np.flatnonzero(act))
    matrix, rhs = Assembler(mesh, dofmap, problem.params).system(state, state[2 * n:])
    mat_red, rhs_red = condense_system(matrix, rhs, Pa)
    return mat_red, rhs_red, 2 * n


@pytest.mark.parametrize(
    "config, u_tol",
    [
        (RunConfig(benchmark="sneddon2d", local_refines=1, itl_mode="ite", n_increments=1), 1e-10),
        # The SENS displacement block has condition number ~1e11 (kappa =
        # 1e-10 h on the broken band), so direct solvers disagree there
        # at ~1e-8: spsolve and dense LAPACK differ by 8e-9.
        (RunConfig(benchmark="sens", global_refines=0, local_refines=0, n_increments=1), 1e-8),
    ],
    ids=["sneddon2d", "sens"],
)
def test_lu_preconditioned_stages_match_spsolve_on_presets(config, u_tol):
    mat_red, rhs_red, split = condensed_preset_system(config)
    # a non-trivial right-hand side in both blocks
    rng = np.random.default_rng(41)
    rhs = rhs_red + rng.standard_normal(len(rhs_red)) * np.linalg.norm(rhs_red)
    ref = sps.spsolve(mat_red.tocsc(), rhs)
    res = solve_block_triangular(
        *blocks(mat_red, split), rhs,
        stage_preconds=lu_stages(mat_red, split),
    )
    assert res.converged
    err = np.abs(res.x - ref)
    assert np.linalg.norm(err[:split]) <= u_tol * np.linalg.norm(ref[:split])
    assert np.linalg.norm(err[split:]) <= 1e-10 * np.linalg.norm(ref[split:])
    assert res.stage_iters[1] <= 2
