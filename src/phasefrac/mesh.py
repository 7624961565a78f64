"""Hierarchical quadrilateral meshes with one-irregular hanging nodes.

Cells live on an integer lattice so that refinement, neighbor lookup and
hanging-node detection are exact.  A cell is stored as ``(ix, iy, s)``
where ``s = 2**(depth - level)`` is its side length in lattice units;
physical coordinates are recovered by scaling with the base cell size.
Local refinement keeps the mesh one-irregular: any two edge neighbors
differ by at most one level, enforced by closure refinement.  Midpoint
nodes on a coarse edge bounded by two finer neighbors are hanging and
carry an interpolation constraint with weights (0.5, 0.5).

All lookups are vectorized over cells.  Lattice points are encoded as
int64 keys ``y * width + x``, which sort by (y, x).  Node ids are the
ranks of the unique corner keys.  The leaf containing a point is found
with one ``searchsorted`` over the sorted leaf-origin keys per distinct
cell size; this gives the neighbor probes of the 2:1 balance closure and
of the boundary facets.  Hanging nodes are edge midpoints whose key is a
node key.

Cell corners are ordered counterclockwise: SW, SE, NE, NW.  Local edges
are 0=south, 1=east, 2=north, 3=west.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Outward normals indexed by local edge (south, east, north, west).
EDGE_NORMALS = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])

# Local corner indices (into the cell's node row) bounding each edge.
EDGE_CORNERS = np.array([[0, 1], [1, 2], [2, 3], [3, 0]], dtype=np.int64)


@dataclass
class ConstraintSet:
    """Hanging-node interpolation constraints.

    ``nodes[k]`` is the id of a hanging node, constrained to the mean of
    ``masters[k, 0]`` and ``masters[k, 1]`` (the endpoints of the coarse
    edge it sits on) with ``weights[k] = (0.5, 0.5)``.  The arrays are
    not modified after construction.
    """

    nodes: np.ndarray
    masters: np.ndarray
    weights: np.ndarray
    # Interpolation matrices by node count; see fem.hanging_interpolation.
    _interpolation: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.nodes)

    @staticmethod
    def empty() -> "ConstraintSet":
        return ConstraintSet(
            nodes=np.zeros(0, dtype=np.int64),
            masters=np.zeros((0, 2), dtype=np.int64),
            weights=np.zeros((0, 2)),
        )


@dataclass
class Mesh:
    """Leaf cells of a quadrilateral refinement forest.

    Attributes
    ----------
    nodes : (n_nodes, 2) float64
        Vertex coordinates, ordered by (y, x).
    cells : (n_cells, 4) int64
        Corner node ids, counterclockwise SW, SE, NE, NW.
    cell_origin, cell_size : (n_cells, 2) float64
        Physical lower-left corner and edge lengths of each cell.
    cell_level : (n_cells,) int32
        Refinement level relative to the base grid.
    boundary_cells, boundary_edges : (n_bfacets,) int64
        Boundary facets as (cell id, local edge) pairs.
    boundary_markers : (n_bfacets,) int32
        Marker id per boundary facet, -1 if unmarked.
    marker_names : dict[str, int]
        Registered marker names.
    hanging : ConstraintSet
        Hanging-node constraints.
    """

    nodes: np.ndarray
    cells: np.ndarray
    cell_origin: np.ndarray
    cell_size: np.ndarray
    cell_level: np.ndarray
    boundary_cells: np.ndarray
    boundary_edges: np.ndarray
    boundary_markers: np.ndarray
    marker_names: dict = field(default_factory=dict)
    hanging: ConstraintSet = field(default_factory=ConstraintSet.empty)
    # Integer lattice bookkeeping; consumed by the refinement routines.
    _lattice: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def h_min(self) -> float:
        """Smallest cell diagonal."""
        return float(np.min(np.hypot(self.cell_size[:, 0], self.cell_size[:, 1])))

    @property
    def h_max(self) -> float:
        """Largest cell diagonal."""
        return float(np.max(np.hypot(self.cell_size[:, 0], self.cell_size[:, 1])))

    def facet_midpoints(self, cells: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Midpoints of the given (cell, local edge) facets."""
        a = self.nodes[self.cells[cells, EDGE_CORNERS[edges, 0]]]
        b = self.nodes[self.cells[cells, EDGE_CORNERS[edges, 1]]]
        return 0.5 * (a + b)

    def mark_boundary(self, name: str, predicate) -> int:
        """Assign a named marker to all boundary facets whose midpoint
        satisfies ``predicate(x, y)``.  Returns the number of facets hit."""
        mid = self.facet_midpoints(self.boundary_cells, self.boundary_edges)
        hit = np.asarray(predicate(mid[:, 0], mid[:, 1]), dtype=bool)
        if name not in self.marker_names:
            self.marker_names[name] = len(self.marker_names)
        self.boundary_markers[hit] = self.marker_names[name]
        return int(np.count_nonzero(hit))

    def marked_facets(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Boundary facets carrying the named marker, as (cells, edges)."""
        if name not in self.marker_names:
            raise ValueError(f"unknown boundary marker {name!r}")
        mid = self.marker_names[name]
        sel = self.boundary_markers == mid
        return self.boundary_cells[sel], self.boundary_edges[sel]


def build_rectangle_mesh(
    origin, extent, subdivisions, global_refines: int = 0, refine_boxes=()
) -> Mesh:
    """Quadrilateral mesh of an axis-aligned rectangle.

    Parameters
    ----------
    origin : (2,) float
        Lower-left corner.
    extent : (2,) float
        Edge lengths (both > 0).
    subdivisions : (2,) int
        Base cell counts (nx, ny), both >= 1.
    global_refines : int
        Uniform refinement rounds applied to the base grid.
    refine_boxes : sequence of ((xmin, xmax, ymin, ymax), extra_levels)
        Cells overlapping a box by positive area gain ``extra_levels``
        further rounds; closure refinement restores one-irregularity.
    """
    origin = np.asarray(origin, dtype=float)
    extent = np.asarray(extent, dtype=float)
    nx, ny = int(subdivisions[0]), int(subdivisions[1])
    if nx < 1 or ny < 1:
        raise ValueError("subdivisions must be positive")
    if extent[0] <= 0 or extent[1] <= 0:
        raise ValueError("extent must be positive")
    jx, jy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    ix = jx.ravel().astype(np.int64)
    iy = jy.ravel().astype(np.int64)
    lattice = {
        "origin": origin,
        "base_cell": extent / np.array([nx, ny], dtype=float),
        "depth": 0,
        "ix": ix,
        "iy": iy,
        "s": np.ones(nx * ny, dtype=np.int64),
    }
    mesh = _finalize(lattice)
    for _ in range(int(global_refines)):
        mesh = refine_global(mesh)
    for box, extra_levels in refine_boxes:
        x0, x1, y0, y1 = (float(v) for v in box)
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"degenerate refine box {box!r}")
        eps = 1e-12 * max(extent)
        if (
            x0 < origin[0] - eps
            or y0 < origin[1] - eps
            or x1 > origin[0] + extent[0] + eps
            or y1 > origin[1] + extent[1] + eps
        ):
            raise ValueError(f"refine box {box!r} reaches outside the domain")
        for _ in range(int(extra_levels)):
            lo = mesh.cell_origin
            hi = lo + mesh.cell_size
            marks = (
                (lo[:, 0] < x1)
                & (hi[:, 0] > x0)
                & (lo[:, 1] < y1)
                & (hi[:, 1] > y0)
            )
            mesh = refine_cells(mesh, marks)
    return mesh


def build_lshape_mesh(global_refines: int = 0, block: float = 250.0) -> Mesh:
    """L-shaped domain assembled from three square blocks.

    The domain is the union of the column (0, block) x (0, 2*block) and
    the block (block, 2*block) x (block, 2*block); the lower-right block
    is absent.  The base grid has one cell per block; ``global_refines``
    uniform rounds follow.  Boundary markers: ``bottom`` (y=0, the
    measurement boundary), ``top``, ``left``, ``right``, ``reentrant``
    (the two edges meeting at the inner corner), and ``strip`` (the
    30 mm loading strip at the right end of the horizontal re-entrant
    edge; on grids too coarse to resolve 30 mm it is the facets
    overlapping that span).
    """
    g = int(global_refines)
    if g < 0:
        raise ValueError("global_refines must be >= 0")
    ix = np.array([0, 0, 1], dtype=np.int64)
    iy = np.array([0, 1, 1], dtype=np.int64)
    lattice = {
        "origin": np.array([0.0, 0.0]),
        "base_cell": np.array([float(block), float(block)]),
        "depth": 0,
        "ix": ix,
        "iy": iy,
        "s": np.ones(3, dtype=np.int64),
    }
    mesh = _finalize(lattice)
    for _ in range(g):
        mesh = refine_global(mesh)
    mark_lshape_boundaries(mesh, block)
    return mesh


def mark_lshape_boundaries(mesh: Mesh, block: float = 250.0) -> None:
    """(Re)apply the L-shape boundary markers to a refined mesh.

    The loading strip takes every facet of the horizontal re-entrant edge
    overlapping its 30 mm span, so a coarse grid still receives at least
    one strip facet.
    """
    b, tol = float(block), 1e-9 * float(block)
    a = mesh.nodes[mesh.cells[mesh.boundary_cells, EDGE_CORNERS[mesh.boundary_edges, 0]]]
    c = mesh.nodes[mesh.cells[mesh.boundary_cells, EDGE_CORNERS[mesh.boundary_edges, 1]]]
    mid = 0.5 * (a + c)

    def assign(name, sel):
        if name not in mesh.marker_names:
            mesh.marker_names[name] = len(mesh.marker_names)
        mesh.boundary_markers[sel] = mesh.marker_names[name]

    assign("bottom", mid[:, 1] < tol)
    assign("top", mid[:, 1] > 2 * b - tol)
    assign("left", mid[:, 0] < tol)
    assign("right", mid[:, 0] > 2 * b - tol)
    assign(
        "reentrant",
        (np.abs(mid[:, 0] - b) < tol) & (mid[:, 1] < b)
        | (np.abs(mid[:, 1] - b) < tol) & (mid[:, 0] > b),
    )
    strip_lo = 2 * b - 30.0 * (b / 250.0)
    on_edge = (np.abs(mid[:, 1] - b) < tol) & (mid[:, 0] > b)
    xmax = np.maximum(a[:, 0], c[:, 0])
    assign("strip", on_edge & (xmax > strip_lo + tol))


def refine_global(mesh: Mesh) -> Mesh:
    """Refine every cell once."""
    return refine_cells(mesh, np.ones(mesh.n_cells, dtype=bool))


def refine_cells(mesh: Mesh, marks: np.ndarray) -> Mesh:
    """Refine the marked cells once, then restore one-irregularity.

    Closure refinement may split additional cells so that edge neighbors
    never differ by more than one level.
    """
    marks = np.asarray(marks, dtype=bool)
    if marks.shape != (mesh.n_cells,):
        raise ValueError("marks must be a boolean mask over cells")
    lat = dict(mesh._lattice)
    ix = lat["ix"].copy()
    iy = lat["iy"].copy()
    s = lat["s"].copy()
    depth = lat["depth"]

    if np.any(marks & (s == 1)):
        ix, iy, s = 2 * ix, 2 * iy, 2 * s
        depth += 1

    ix, iy, s = _split(ix, iy, s, marks)

    # Closure sweeps: any cell with an edge neighbor smaller than half its
    # own size must split as well.
    while True:
        viol = _balance_violations(ix, iy, s)
        if not viol.any():
            break
        # Violating cells have size > 2, so no depth increase is needed here.
        ix, iy, s = _split(ix, iy, s, viol)

    lat.update(ix=ix, iy=iy, s=s, depth=depth)
    return _finalize(lat)


# ----------------------------------------------------------------------
# Integer-lattice internals
# ----------------------------------------------------------------------


def _split(ix, iy, s, marks):
    """Replace marked cells by their four children (size s/2)."""
    keep = ~marks
    cx, cy, cs = ix[marks], iy[marks], s[marks] // 2
    child_ix = np.concatenate([ix[keep], cx, cx + cs, cx, cx + cs])
    child_iy = np.concatenate([iy[keep], cy, cy, cy + cs, cy + cs])
    child_s = np.concatenate([s[keep], cs, cs, cs, cs])
    return child_ix, child_iy, child_s


def _key_width(ix, s) -> int:
    """Row width of the int64 lattice keys ``y * width + x``: one more
    than the largest node x, so keys are unique and ordered by (y, x)."""
    return int(np.max(ix + s)) + 1


def _find_leaves(ix, iy, s, px, py):
    """Row of the leaf containing each half-open lattice point (px, py), or -1.

    Leaves tile the domain without overlap, so a point lies in the leaf of
    size t whose origin is the point floored to a multiple of t, if such a
    leaf exists.  Leaf origins are unique, so one sorted key array serves
    every size: one ``searchsorted`` probe per distinct size.
    """
    width = _key_width(ix, s)
    keys = iy * width + ix
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    found = np.full(np.shape(px), -1, dtype=np.int64)
    flat = found.reshape(-1)
    px, py = np.ravel(px), np.ravel(py)
    (todo,) = np.nonzero((px >= 0) & (py >= 0) & (px < width) & (py < int(np.max(iy + s))))
    # Most common sizes first, so that most points are settled early.
    sizes, counts = np.unique(s, return_counts=True)
    for t in sizes[np.argsort(-counts, kind="stable")]:
        probe = (py[todo] // t) * t * width + (px[todo] // t) * t
        pos = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
        row = order[pos]
        hit = (keys[pos] == probe) & (s[row] == t)
        flat[todo[hit]] = row[hit]
        todo = todo[~hit]
    return found


def _balance_violations(ix, iy, s):
    """Cells having an edge neighbor of size < s/2 (must be split)."""
    # Probe outward from each cell across each edge; the leaf found there
    # must split if it is more than twice the probing cell's size.
    px = np.concatenate([ix - 1, ix + s, ix, ix])
    py = np.concatenate([iy, iy, iy - 1, iy + s])
    j = _find_leaves(ix, iy, s, px, py)
    hit = j >= 0
    viol = np.zeros(len(ix), dtype=bool)
    viol[j[hit][s[j[hit]] > 2 * np.tile(s, 4)[hit]]] = True
    return viol


# Local corners bounding each edge, as the masters of its hanging midpoint.
_MASTER_CORNERS = np.array([[0, 1], [1, 2], [3, 2], [0, 3]], dtype=np.int64)


def _hanging_constraints(ix, iy, s, node_keys, cells):
    """Hanging nodes: existing midpoints of leaf edges of size >= 2."""
    width = _key_width(ix, s)
    h = s // 2
    # Edge midpoints per cell, local edges south, east, north, west.
    mx = np.stack([ix + h, ix + s, ix + h, ix], axis=1)
    my = np.stack([iy, iy + h, iy + s, iy + h], axis=1)
    probe = my * width + mx
    pos = np.minimum(np.searchsorted(node_keys, probe), len(node_keys) - 1)
    cell, edge = np.nonzero((node_keys[pos] == probe) & (s >= 2)[:, None])
    if not len(cell):
        return ConstraintSet.empty()
    # The first (cell, edge) that reaches a node names its masters.
    nodes, first = np.unique(pos[cell, edge], return_index=True)
    corners = _MASTER_CORNERS[edge[first]]
    masters = cells[cell[first, None], corners]
    return ConstraintSet(nodes=nodes, masters=masters, weights=np.full((len(nodes), 2), 0.5))


def _finalize(lat: dict) -> Mesh:
    """Build node, cell, boundary and constraint arrays from lattice cells."""
    ix, iy, s = lat["ix"], lat["iy"], lat["s"]
    # Canonical cell order: by (y, x, size); keeps output deterministic.
    order = np.lexsort((s, ix, iy))
    ix, iy, s = ix[order], iy[order], s[order]

    # Node ids are the ranks of the unique corner keys, ordered by (y, x).
    width = _key_width(ix, s)
    corner_x = np.stack([ix, ix + s, ix + s, ix], axis=1)
    corner_y = np.stack([iy, iy, iy + s, iy + s], axis=1)
    node_keys, inverse = np.unique((corner_y * width + corner_x).ravel(), return_inverse=True)
    cells = inverse.reshape(-1, 4)

    scale = lat["base_cell"] / float(2 ** lat["depth"])
    nodes = lat["origin"] + np.stack([node_keys % width, node_keys // width], axis=1) * scale

    # A cell edge is on the boundary when the lattice point just outside it
    # (probed south, east, north, west) lies in no leaf.
    px = np.stack([ix, ix + s, ix, ix - 1], axis=1)
    py = np.stack([iy - 1, iy, iy + s, iy], axis=1)
    boundary_cells, boundary_edges = np.nonzero(_find_leaves(ix, iy, s, px, py) < 0)

    hanging = _hanging_constraints(ix, iy, s, node_keys, cells)

    lat_out = dict(lat)
    lat_out.update(ix=ix, iy=iy, s=s, node_keys=node_keys)

    depth_levels = lat["depth"] - np.log2(s.astype(float))
    cell_level = np.round(depth_levels).astype(np.int32)

    return Mesh(
        nodes=nodes,
        cells=cells,
        cell_origin=lat["origin"] + np.stack([ix, iy], axis=1) * scale,
        cell_size=np.stack([s, s], axis=1) * scale,
        cell_level=cell_level,
        boundary_cells=boundary_cells,
        boundary_edges=boundary_edges,
        boundary_markers=np.full(len(boundary_cells), -1, dtype=np.int32),
        marker_names={},
        hanging=hanging,
        _lattice=lat_out,
    )
