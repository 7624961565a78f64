"""Element-kernel checks against independent oracles.

The stress split is compared with a dense symmetric eigensolver, the
assembled residual with a plain-Python quadrature loop, and the Jacobian
with central finite differences of the residual.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from phasefrac import kernels
from phasefrac.fem import build_dof_map
from phasefrac.material import Assembler, MaterialParams, degradation
from phasefrac.mesh import build_rectangle_mesh

from reference_util import split_stress, split_tangent


# ----------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------


def eigh_split(e: np.ndarray, mu: float, lam: float):
    """Stress split via numpy's symmetric eigensolver (2x2 tensor in/out)."""
    vals, vecs = np.linalg.eigh(e)
    e_plus = np.zeros((2, 2))
    for k in range(2):
        e_plus += max(vals[k], 0.0) * np.outer(vecs[:, k], vecs[:, k])
    e_minus = e - e_plus
    tr = np.trace(e)
    s_plus = 2.0 * mu * e_plus + lam * max(tr, 0.0) * np.eye(2)
    s_minus = 2.0 * mu * e_minus + lam * min(tr, 0.0) * np.eye(2)
    return s_plus, s_minus


def split_voigt(e11, e22, e12, mu, lam, split):
    """Kernel split evaluated scalar-wise, returned as 2x2 tensors."""
    sp11, sp22, sp12, sm11, sm22, sm12, psi = split_stress(
        e11, e22, e12, mu, lam, split
    )
    plus = np.array([[sp11, sp12], [sp12, sp22]])
    minus = np.array([[sm11, sm12], [sm12, sm22]])
    return plus, minus, psi


BILIN = [
    lambda x, y: (1 - x) * (1 - y) / 4,
    lambda x, y: (1 + x) * (1 - y) / 4,
    lambda x, y: (1 + x) * (1 + y) / 4,
    lambda x, y: (1 - x) * (1 + y) / 4,
]
BILIN_DX = [
    lambda x, y: -(1 - y) / 4,
    lambda x, y: (1 - y) / 4,
    lambda x, y: (1 + y) / 4,
    lambda x, y: -(1 + y) / 4,
]
BILIN_DY = [
    lambda x, y: -(1 - x) / 4,
    lambda x, y: -(1 + x) / 4,
    lambda x, y: (1 + x) / 4,
    lambda x, y: (1 - x) / 4,
]


def residual_oracle(mesh, dofmap, state, phi_lin, params):
    """Plain-Python quadrature loop for the assembled right-hand side."""
    n = dofmap.n_nodes
    u = state[: 2 * n]
    phi = state[2 * n:]
    g = 1.0 / np.sqrt(3.0)
    qps = [(-g, -g), (g, -g), (g, g), (-g, g)]
    out = np.zeros(dofmap.n_dofs)
    for c in range(mesh.cells.shape[0]):
        conn = mesh.cells[c]
        hx, hy = mesh.cell_size[c]
        det = hx * hy / 4.0
        for xi, eta in qps:
            nv = np.array([f(xi, eta) for f in BILIN])
            dnx = np.array([f(xi, eta) for f in BILIN_DX]) * (2.0 / hx)
            dny = np.array([f(xi, eta) for f in BILIN_DY]) * (2.0 / hy)
            ux = u[2 * conn]
            uy = u[2 * conn + 1]
            e = np.zeros((2, 2))
            e[0, 0] = dnx @ ux
            e[1, 1] = dny @ uy
            e[0, 1] = e[1, 0] = 0.5 * (dny @ ux + dnx @ uy)
            s_plus, s_minus = eigh_split(e, params.mu, params.lam)
            if params.split == "none":
                s_plus, s_minus = s_plus + s_minus, np.zeros((2, 2))
            phiq = nv @ phi[conn]
            phitq = nv @ phi_lin[conn]
            gphi = np.array([dnx @ phi[conn], dny @ phi[conn]])
            gdeg = degradation(phitq, params.kappa)
            sig = gdeg * s_plus + s_minus
            psi = np.tensordot(s_plus, e)
            div_u = e[0, 0] + e[1, 1]
            for a in range(4):
                grad = np.array(
                    [[dnx[a], 0.0], [0.0, dny[a]], [dny[a], dnx[a]]]
                )
                # x test function: strain rows (dnx, 0, dny) in Voigt order
                fx = -(sig[0, 0] * dnx[a] + sig[0, 1] * dny[a])
                fy = -(sig[1, 1] * dny[a] + sig[0, 1] * dnx[a])
                fx -= phitq**2 * params.pressure * dnx[a]
                fy -= phitq**2 * params.pressure * dny[a]
                fphi = (
                    -(1.0 - params.kappa) * phiq * psi * nv[a]
                    - 2.0 * phiq * params.pressure * div_u * nv[a]
                    + params.gc / params.eps * (1.0 - phiq) * nv[a]
                    - params.gc * params.eps * (gphi[0] * dnx[a] + gphi[1] * dny[a])
                )
                out[2 * conn[a]] += det * fx
                out[2 * conn[a] + 1] += det * fy
                out[2 * n + conn[a]] += det * fphi
    return out


def small_assembler(split, nx=2, ny=2, pressure=1e-3):
    mesh = build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), (nx, ny))
    dofmap = build_dof_map(mesh)
    params = MaterialParams(
        mu=0.42, lam=0.28, gc=1.0, eps=0.1, kappa=1e-10,
        pressure=pressure, split=split,
    )
    return mesh, dofmap, Assembler(mesh, dofmap, params)


def random_state(dofmap, rng, scale=1e-2):
    n = dofmap.n_nodes
    state = np.empty(3 * n)
    state[: 2 * n] = scale * rng.standard_normal(2 * n)
    state[2 * n:] = rng.uniform(0.2, 0.95, n)
    phi_lin = rng.uniform(0.2, 0.95, n)
    return state, phi_lin


# ----------------------------------------------------------------------
# stress split
# ----------------------------------------------------------------------


def test_split_none_returns_full_stress():
    plus, minus, psi = split_voigt(0.3, -0.1, 0.2, 0.42, 0.28, "none")
    tr = 0.3 - 0.1
    full = np.array(
        [
            [2 * 0.42 * 0.3 + 0.28 * tr, 2 * 0.42 * 0.2],
            [2 * 0.42 * 0.2, 2 * 0.42 * (-0.1) + 0.28 * tr],
        ]
    )
    assert np.allclose(plus, full, rtol=0, atol=1e-15)
    assert np.all(minus == 0.0)


def test_split_biaxial_tension_all_plus():
    plus, minus, _ = split_voigt(1.0, 1.0, 0.0, 0.42, 0.28, "spectral")
    assert np.all(minus == 0.0)
    assert np.allclose(plus, (2 * 0.42 + 2 * 0.28) * np.eye(2))


def test_split_biaxial_compression_all_minus():
    plus, minus, psi = split_voigt(-1.0, -1.0, 0.0, 0.42, 0.28, "spectral")
    assert np.all(plus == 0.0)
    assert psi == 0.0
    assert np.allclose(minus, -(2 * 0.42 + 2 * 0.28) * np.eye(2))


def test_split_pure_shear_matches_eigh_oracle():
    e = np.array([[0.0, 0.5], [0.5, 0.0]])
    plus, minus, _ = split_voigt(0.0, 0.0, 0.5, 0.42, 0.28, "spectral")
    ref_plus, ref_minus = eigh_split(e, 0.42, 0.28)
    assert np.allclose(plus, ref_plus, atol=1e-14)
    assert np.allclose(minus, ref_minus, atol=1e-14)


def test_split_random_states_match_eigh_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        e11, e22, e12 = rng.standard_normal(3)
        mu, lam = rng.uniform(0.1, 2.0, 2)
        plus, minus, psi = split_voigt(e11, e22, e12, mu, lam, "spectral")
        e = np.array([[e11, e12], [e12, e22]])
        ref_plus, ref_minus = eigh_split(e, mu, lam)
        assert np.allclose(plus, ref_plus, atol=1e-12)
        assert np.allclose(minus, ref_minus, atol=1e-12)
        assert abs(psi - np.tensordot(ref_plus, e)) < 1e-12


def test_split_sum_identity_exact():
    rng = np.random.default_rng(8)
    for _ in range(200):
        e11, e22, e12 = rng.standard_normal(3)
        plus, minus, _ = split_voigt(e11, e22, e12, 0.42, 0.28, "spectral")
        tr = e11 + e22
        full = 2 * 0.42 * np.array([[e11, e12], [e12, e22]]) + 0.28 * tr * np.eye(2)
        assert np.allclose(plus + minus, full, rtol=0, atol=1e-12)


def test_split_isotropy_under_rotation():
    rng = np.random.default_rng(9)
    for _ in range(50):
        e11, e22, e12 = rng.standard_normal(3)
        th = rng.uniform(0, 2 * np.pi)
        q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        e = np.array([[e11, e12], [e12, e22]])
        er = q @ e @ q.T
        plus, minus, _ = split_voigt(e11, e22, e12, 0.42, 0.28, "spectral")
        plus_r, minus_r, _ = split_voigt(
            er[0, 0], er[1, 1], er[0, 1], 0.42, 0.28, "spectral"
        )
        assert np.allclose(plus_r, q @ plus @ q.T, atol=1e-12)
        assert np.allclose(minus_r, q @ minus @ q.T, atol=1e-12)


def test_split_repeated_eigenvalues_trace_rule():
    # spherical strain sits on the degenerate branch; tension keeps all of
    # the stress in sigma+, compression in sigma-
    plus, minus, _ = split_voigt(0.5, 0.5, 0.0, 1.0, 1.0, "spectral")
    assert np.all(minus == 0.0) and plus[0, 0] > 0
    plus, minus, _ = split_voigt(-0.5, -0.5, 0.0, 1.0, 1.0, "spectral")
    assert np.all(plus == 0.0) and minus[0, 0] < 0


def test_tangent_is_fd_derivative_of_split_stress():
    # central differences of gdeg*sigma+ + sigma- in Voigt strain coords
    rng = np.random.default_rng(10)
    mu, lam, gdeg = 0.42, 0.28, 0.37
    for _ in range(50):
        e11, e22, e12 = rng.standard_normal(3)
        D = np.zeros((3, 3))
        split_tangent(e11, e22, e12, mu, lam, gdeg, "spectral", D)

        def stress(v):
            # v is the strain triple (e11, e22, 2 e12)
            plus, minus, _ = split_voigt(
                v[0], v[1], 0.5 * v[2], mu, lam, "spectral"
            )
            sig = gdeg * plus + minus
            return np.array([sig[0, 0], sig[1, 1], sig[0, 1]])

        v0 = np.array([e11, e22, 2 * e12])
        h = 1e-7 * max(1.0, np.linalg.norm(v0))
        fd = np.zeros((3, 3))
        for j in range(3):
            dv = np.zeros(3)
            dv[j] = h
            fd[:, j] = (stress(v0 + dv) - stress(v0 - dv)) / (2 * h)
        assert np.allclose(D, fd, rtol=1e-5, atol=1e-7)


def test_tangent_none_is_degraded_hooke():
    D = np.zeros((3, 3))
    split_tangent(0.1, -0.2, 0.05, 0.42, 0.28, 0.5, "none", D)
    hooke = np.array(
        [[0.28 + 0.84, 0.28, 0.0], [0.28, 0.28 + 0.84, 0.0], [0.0, 0.0, 0.42]]
    )
    assert np.allclose(D, 0.5 * hooke, rtol=0, atol=1e-15)


def test_numpy_split_twins_agree_with_scalar_path():
    rng = np.random.default_rng(11)
    e11 = rng.standard_normal((5, 4))
    e22 = rng.standard_normal((5, 4))
    e12 = rng.standard_normal((5, 4))
    for split, principal in (
        ("none", None), ("spectral", kernels._principal_strains(e11, e22, e12))
    ):
        vec = kernels._split_stress(e11, e22, e12, 0.42, 0.28, principal)
        tan = kernels._split_tangent(0.42, 0.28, np.full((5, 4), 0.37), principal)
        for i in range(5):
            for q in range(4):
                ref = split_stress(e11[i, q], e22[i, q], e12[i, q], 0.42, 0.28, split)
                for comp, refc in zip(vec, ref):
                    assert abs(comp[i, q] - refc) < 1e-13
                D = np.zeros((3, 3))
                split_tangent(
                    e11[i, q], e22[i, q], e12[i, q], 0.42, 0.28, 0.37, split, D,
                )
                assert np.allclose(tan[i, q], D, atol=1e-13)


# ----------------------------------------------------------------------
# assembled residual and Jacobian
# ----------------------------------------------------------------------


@pytest.mark.parametrize("split", ["none", "spectral"])
def test_residual_matches_quadrature_oracle(split):
    mesh, dofmap, asm = small_assembler(split)
    rng = np.random.default_rng(12)
    state, phi_lin = random_state(dofmap, rng)
    got = asm.residual(state, phi_lin)
    ref = residual_oracle(mesh, dofmap, state, phi_lin, asm.params)
    scale = np.linalg.norm(ref)
    assert np.allclose(got, ref, rtol=0, atol=1e-12 * max(scale, 1.0))


def test_residual_zero_at_intact_unloaded():
    _, dofmap, asm = small_assembler("spectral", pressure=0.0)
    n = dofmap.n_nodes
    state = np.zeros(3 * n)
    state[2 * n:] = 1.0
    res = asm.residual(state, np.ones(n))
    assert np.all(res == 0.0)


def test_residual_broken_unloaded_single_term():
    # u = 0, phi = 0: only the (1 - phi) source survives, with weight
    # gc/eps times the lumped basis integral
    mesh, dofmap, asm = small_assembler("spectral", pressure=0.0)
    n = dofmap.n_nodes
    state = np.zeros(3 * n)
    res = asm.residual(state, np.zeros(n))
    assert np.all(res[: 2 * n] == 0.0)
    p = asm.params
    area = mesh.cell_size[:, 0] * mesh.cell_size[:, 1]
    expected = np.zeros(n)
    for c, conn in enumerate(mesh.cells):
        expected[conn] += p.gc / p.eps * area[c] / 4.0
    assert np.allclose(res[2 * n:], expected, rtol=1e-14)


@pytest.mark.parametrize("split", ["none", "spectral"])
def test_jacobian_matches_central_differences(split):
    # M = -dF/dU with phi_lin frozen; checked along random directions
    mesh, dofmap, asm = small_assembler(split, nx=3, ny=3)
    rng = np.random.default_rng(14)
    for trial in range(5):
        state, phi_lin = random_state(dofmap, rng)
        matrix = asm.system(state, phi_lin)
        v = rng.standard_normal(dofmap.n_dofs)
        v /= np.linalg.norm(v)
        delta = np.sqrt(np.finfo(float).eps) * max(1.0, np.linalg.norm(state))
        fp = asm.residual(state + delta * v, phi_lin)
        fm = asm.residual(state - delta * v, phi_lin)
        fd = (fp - fm) / (2.0 * delta)
        mv = matrix @ v
        err = np.linalg.norm(mv + fd) / np.linalg.norm(mv)
        assert err < 1e-5


def test_jacobian_u_phi_block_zero():
    # no structural coupling from displacement rows to phase-field columns
    _, dofmap, asm = small_assembler("spectral")
    rng = np.random.default_rng(15)
    state, phi_lin = random_state(dofmap, rng, scale=0.1)
    matrix = asm.system(state, phi_lin)
    n = dofmap.n_nodes
    block = matrix.tocsr()[: 2 * n, 2 * n:]
    assert block.nnz > 0  # structurally present
    assert np.all(block.data == 0.0)  # numerically zero


def test_jacobian_phiphi_screened_laplacian_spd():
    # u = 0, p = 0 leaves gc*(mass/eps + eps*stiffness), symmetric and SPD
    _, dofmap, asm = small_assembler("spectral", pressure=0.0)
    n = dofmap.n_nodes
    state = np.zeros(3 * n)
    state[2 * n:] = 1.0
    matrix = asm.system(state, np.ones(n))
    block = matrix.tocsr()[2 * n:, 2 * n:].toarray()
    assert np.allclose(block, block.T, atol=1e-14)
    vals = np.linalg.eigvalsh(block)
    assert vals.min() > 0.0


def test_jacobian_uu_spd_none_split():
    # semi-definite with exactly the three rigid-body modes in the kernel;
    # strictly definite once those are pinned
    _, dofmap, asm = small_assembler("none", pressure=0.0)
    rng = np.random.default_rng(16)
    state, phi_lin = random_state(dofmap, rng)
    matrix = asm.system(state, phi_lin)
    n = dofmap.n_nodes
    block = matrix.tocsr()[: 2 * n, : 2 * n].toarray()
    assert np.allclose(block, block.T, atol=1e-10)
    vals = np.linalg.eigvalsh(block)
    scale = vals.max()
    assert vals.min() > -1e-12 * scale
    assert np.sum(vals < 1e-12 * scale) == 3
    keep = np.setdiff1d(np.arange(2 * n), [0, 1, 3])
    pinned = block[np.ix_(keep, keep)]
    assert np.linalg.eigvalsh(pinned).min() > 0.0


def test_assembly_plan_matches_coo_scatter():
    rng = np.random.default_rng(20)
    mesh = build_rectangle_mesh((0.0, 0.0), (1.0, 1.0), (3, 2))
    dofmap = build_dof_map(mesh)
    plan = kernels.AssemblyPlan(dofmap.cell_dofs, dofmap.n_dofs)
    blocks = rng.standard_normal((mesh.cells.shape[0], 12, 12))
    got = plan.matrix_from_blocks(blocks).toarray()
    ref = np.zeros((dofmap.n_dofs, dofmap.n_dofs))
    for c in range(mesh.cells.shape[0]):
        dofs = dofmap.cell_dofs[c]
        for i in range(12):
            for j in range(12):
                ref[dofs[i], dofs[j]] += blocks[c, i, j]
    assert np.allclose(got, ref, atol=1e-13)
    vec_blocks = rng.standard_normal((mesh.cells.shape[0], 12))
    got_v = plan.vector_from_blocks(vec_blocks)
    ref_v = np.zeros(dofmap.n_dofs)
    for c in range(mesh.cells.shape[0]):
        np.add.at(ref_v, dofmap.cell_dofs[c], vec_blocks[c])
    assert np.allclose(got_v, ref_v, atol=1e-13)
