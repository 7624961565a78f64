"""Built-in problem setups.

Three ready-made configurations: a pressurized interior crack on a
square (``sneddon2d``), a single-edge notched shear test (``sens``), and
a cyclically loaded L-shaped panel (``lpanel``).  Each builder resolves
the unset fields of a RunConfig to the setup's defaults, constructs the
mesh with its static refinement corridor, and wires boundary conditions
and reference quantities into a Problem the driver can march.

Dof layout convention (shared with the fem module): node i carries
u_x at 2i, u_y at 2i+1, and the phase field at 2*n_nodes + i.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from .driver import Problem, RunConfig
from .material import MaterialParams
from .mesh import (
    EDGE_CORNERS,
    Mesh,
    build_lshape_mesh,
    build_rectangle_mesh,
    mark_lshape_boundaries,
    refine_cells,
)
from .qoi import analytic_sneddon_tcv

PRESET_NAMES = ("sneddon2d", "sens", "lpanel")

_DEFAULTS = {
    "sneddon2d": dict(
        global_refines=2, local_refines=3, k_n=1.0, n_increments=5, split="none"
    ),
    "sens": dict(
        global_refines=2, local_refines=2, k_n=1.0e-4, n_increments=200,
        split="spectral",
    ),
    "lpanel": dict(
        global_refines=2, local_refines=0, k_n=1.0e-3, n_increments=2000,
        split="spectral",
    ),
}


def build_problem(config: RunConfig) -> Tuple[Problem, RunConfig]:
    """Materialize the configured benchmark.

    Returns the Problem plus a copy of the config with every None field
    replaced by the preset default, ready for the driver.
    """
    if config.benchmark == "sneddon2d":
        return _sneddon2d(_resolve(config))
    if config.benchmark == "sens":
        return _sens(_resolve(config))
    if config.benchmark == "lpanel":
        return _lpanel(_resolve(config))
    if config.benchmark == "custom":
        raise ValueError(
            "benchmark 'custom' has no built-in geometry; construct a "
            "Problem directly and call the driver"
        )
    raise ValueError(
        f"unknown benchmark {config.benchmark!r}; expected one of "
        f"{PRESET_NAMES} or 'custom'"
    )


def _resolve(config: RunConfig) -> RunConfig:
    filled = {
        key: value
        for key, value in _DEFAULTS[config.benchmark].items()
        if getattr(config, key) is None
    }
    return dataclasses.replace(config, **filled) if filled else config


def _facet_nodes(mesh: Mesh, marker: str) -> np.ndarray:
    cells, edges = mesh.marked_facets(marker)
    return np.unique(mesh.cells[cells[:, None], EDGE_CORNERS[edges]])


# ----------------------------------------------------------------------
# Pressurized interior crack (stationary)
# ----------------------------------------------------------------------


def sneddon_refine_boxes(local_refines: int):
    """Nested boxes around the crack [-0.25, 0.25] x {0}, one extra level
    each, halving in half-width from 4 down; keeps the fine region focused
    on the crack while the far field stays coarse."""
    boxes = []
    half = 4.0
    for _ in range(int(local_refines)):
        boxes.append(((-0.25 - half, 0.25 + half, -half, half), 1))
        half *= 0.5
    return boxes


def _sneddon2d(config: RunConfig) -> Tuple[Problem, RunConfig]:
    mesh = build_rectangle_mesh(
        (-10.0, -10.0),
        (20.0, 20.0),
        (10, 10),
        global_refines=config.global_refines,
        refine_boxes=sneddon_refine_boxes(config.local_refines),
    )
    tol = 1e-9
    mesh.mark_boundary("bottom", lambda x, y: y < -10.0 + tol)
    mesh.mark_boundary("top", lambda x, y: y > 10.0 - tol)
    mesh.mark_boundary("left", lambda x, y: x < -10.0 + tol)
    mesh.mark_boundary("right", lambda x, y: x > 10.0 - tol)

    n = mesh.n_nodes
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    boundary = (np.abs(x) > 10.0 - tol) | (np.abs(y) > 10.0 - tol)
    (bid,) = np.nonzero(boundary)

    fixed = np.zeros(3 * n, dtype=bool)
    fixed[2 * bid] = True
    fixed[2 * bid + 1] = True

    # Broken band: all nodes within the regularization width of the slit.
    eps = 2.0 * mesh.h_min
    phi0 = np.ones(n)
    phi0[(np.abs(x) <= 0.25 + tol) & (np.abs(y) <= eps + tol)] = 0.0

    params = MaterialParams(
        mu=0.42,
        lam=0.28,
        gc=1.0,
        eps=eps,
        kappa=1.0e-10,
        pressure=1.0e-3,
        split=config.split,
    )

    def apply_values(state: np.ndarray, t: float) -> None:
        state[2 * bid] = 0.0
        state[2 * bid + 1] = 0.0

    problem = Problem(
        mesh=mesh,
        constraints=mesh.hanging,
        params=params,
        initial_phi=phi0,
        fixed=fixed,
        apply_values=apply_values,
        load_marker=None,
        tcv_reference=analytic_sneddon_tcv(
            params.pressure, 0.25, params.youngs, params.poisson
        ),
        name="sneddon2d",
    )
    return problem, config


# ----------------------------------------------------------------------
# Single-edge notched shear
# ----------------------------------------------------------------------

# Static refinement corridor covering the initial slit and the region the
# crack grows through: from the slit tip it curves up and to the left,
# reaching the top boundary near x = 0.25.
SENS_CORRIDOR = (0.15, 1.0, 0.35, 1.0)


def _sens(config: RunConfig) -> Tuple[Problem, RunConfig]:
    mesh = build_rectangle_mesh(
        (0.0, 0.0),
        (1.0, 1.0),
        (8, 8),
        global_refines=config.global_refines,
        refine_boxes=[(SENS_CORRIDOR, config.local_refines)]
        if config.local_refines
        else (),
    )
    tol = 1e-9
    mesh.mark_boundary("bottom", lambda x, y: y < tol)
    mesh.mark_boundary("top", lambda x, y: y > 1.0 - tol)
    mesh.mark_boundary("left", lambda x, y: x < tol)
    mesh.mark_boundary("right", lambda x, y: x > 1.0 - tol)

    n = mesh.n_nodes
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    (bottom,) = np.nonzero(y < tol)
    (top,) = np.nonzero(y > 1.0 - tol)

    fixed = np.zeros(3 * n, dtype=bool)
    for nodes in (bottom, top):
        fixed[2 * nodes] = True
        fixed[2 * nodes + 1] = True

    eps = 2.0 * mesh.h_min
    # Slit from the midpoint of the right edge to the center, seeded as a
    # broken band of width eps around the segment.
    dist = np.hypot(np.maximum(0.5 - x, 0.0), np.abs(y - 0.5))
    phi0 = np.ones(n)
    phi0[dist <= eps + tol] = 0.0

    # kN-mm unit system: the Lame constants are in kN/mm^2 as tabulated,
    # so the toughness (2.7 N/mm) becomes 2.7e-3 kN/mm.  Keeping the
    # stiffness scale at O(100) also keeps the absolute Newton tolerance
    # meaningful; loads come out in kN.
    params = MaterialParams(
        mu=80.77,
        lam=121.15,
        gc=2.7e-3,
        eps=eps,
        kappa=1.0e-10 * mesh.h_min,
        pressure=0.0,
        split=config.split,
    )

    def apply_values(state: np.ndarray, t: float) -> None:
        state[2 * bottom] = 0.0
        state[2 * bottom + 1] = 0.0
        state[2 * top] = t
        state[2 * top + 1] = 0.0

    problem = Problem(
        mesh=mesh,
        constraints=mesh.hanging,
        params=params,
        initial_phi=phi0,
        fixed=fixed,
        apply_values=apply_values,
        load_marker="top",
        tcv_reference=None,
        name="sens",
    )
    return problem, config


# ----------------------------------------------------------------------
# L-shaped panel, cyclic loading
# ----------------------------------------------------------------------

# Corridor around the re-entrant corner for optional local refinement.
LPANEL_CORRIDOR = (0.0, 400.0, 200.0, 350.0)


def lpanel_displacement(t: float) -> float:
    """Piecewise-linear loading cycle of the strip displacement."""
    if t <= 0.3:
        return t
    if t <= 0.8:
        return 0.6 - t
    return t - 1.0


def _lpanel(config: RunConfig) -> Tuple[Problem, RunConfig]:
    mesh = build_lshape_mesh(config.global_refines)
    x0, x1, y0, y1 = LPANEL_CORRIDOR
    for _ in range(config.local_refines):
        lo = mesh.cell_origin
        hi = lo + mesh.cell_size
        marks = (
            (lo[:, 0] < x1) & (hi[:, 0] > x0) & (lo[:, 1] < y1) & (hi[:, 1] > y0)
        )
        mesh = refine_cells(mesh, marks)
    if config.local_refines:
        mark_lshape_boundaries(mesh)

    n = mesh.n_nodes
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    tol = 1e-9 * 250.0
    (bottom,) = np.nonzero(y < tol)
    strip = _facet_nodes(mesh, "strip")
    (phi_pinned,) = np.nonzero(x > 400.0 - tol)

    fixed = np.zeros(3 * n, dtype=bool)
    fixed[2 * bottom] = True
    fixed[2 * bottom + 1] = True
    fixed[2 * strip + 1] = True  # u_x stays free on the strip
    fixed[2 * n + phi_pinned] = True

    phi0 = np.ones(n)

    # Same kN-mm convention as the shear test: stiffness stays in kN/mm^2
    # as tabulated and the toughness (8.9e-2 N/mm) becomes 8.9e-5 kN/mm.
    params = MaterialParams(
        mu=10.95,
        lam=6.16,
        gc=8.9e-5,
        eps=2.0 * mesh.h_min,
        kappa=1.0e-10 * mesh.h_min,
        pressure=0.0,
        split=config.split,
    )

    def apply_values(state: np.ndarray, t: float) -> None:
        state[2 * bottom] = 0.0
        state[2 * bottom + 1] = 0.0
        state[2 * strip + 1] = lpanel_displacement(t)
        state[2 * n + phi_pinned] = 1.0

    problem = Problem(
        mesh=mesh,
        constraints=mesh.hanging,
        params=params,
        initial_phi=phi0,
        fixed=fixed,
        apply_values=apply_values,
        load_marker="bottom",
        tcv_reference=None,
        name="lpanel",
    )
    return problem, config
