"""Boundary-load QoI against a per-facet quadrature loop."""

import numpy as np
import pytest

from phasefrac.driver import RunConfig
from phasefrac.fem import build_dof_map
from phasefrac.mesh import EDGE_NORMALS
from phasefrac.presets import build_problem
from phasefrac.qoi import boundary_load


def boundary_load_loop(mesh, dofmap, state, params, marker):
    """Per-facet, per-Gauss-point traction resultant, Hooke stress."""
    g = 1.0 / np.sqrt(3.0)
    t = np.array([-g, g])
    one = np.ones(2)
    edge_points = {
        0: np.column_stack([t, -one]),  # south
        1: np.column_stack([one, t]),  # east
        2: np.column_stack([t, one]),  # north
        3: np.column_stack([-one, t]),  # west
    }
    u = state[: 2 * dofmap.n_nodes]
    fx = fy = 0.0
    for cell, edge in zip(*mesh.marked_facets(marker)):
        conn = mesh.cells[cell]
        hx, hy = mesh.cell_size[cell]
        normal = EDGE_NORMALS[edge]
        ds = 0.5 * (hx if edge in (0, 2) else hy)
        for xi, eta in edge_points[int(edge)]:
            dnx = 0.25 * np.array([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)]) * (2.0 / hx)
            dny = 0.25 * np.array([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)]) * (2.0 / hy)
            ux, uy = u[2 * conn], u[2 * conn + 1]
            e11, e22 = dnx @ ux, dny @ uy
            e12 = 0.5 * (dny @ ux + dnx @ uy)
            tr = e11 + e22
            s11 = 2.0 * params.mu * e11 + params.lam * tr
            s22 = 2.0 * params.mu * e22 + params.lam * tr
            s12 = 2.0 * params.mu * e12
            fx += ds * (s11 * normal[0] + s12 * normal[1])
            fy += ds * (s12 * normal[0] + s22 * normal[1])
    return fx, fy


@pytest.mark.parametrize("config, marker", [
    (dict(benchmark="sens"), "top"),
    (dict(benchmark="lpanel", global_refines=5), "bottom"),
    (dict(benchmark="lpanel", global_refines=3, local_refines=2), "bottom"),
], ids=["sens", "lpanel", "lpanel-local"])
def test_boundary_load_matches_facet_loop(config, marker):
    problem, _ = build_problem(RunConfig(**config))
    mesh = problem.mesh
    dm = build_dof_map(mesh)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    smooth = np.zeros(dm.n_dofs)
    smooth[0:2 * mesh.n_nodes:2] = 0.3 * x + 0.1 * y * y
    smooth[1:2 * mesh.n_nodes:2] = -0.2 * y + 0.05 * x * y
    rough = np.random.default_rng(4).standard_normal(dm.n_dofs)
    for state in (smooth, rough):
        got = boundary_load(mesh, dm, state, problem.params, marker)
        want = boundary_load_loop(mesh, dm, state, problem.params, marker)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
