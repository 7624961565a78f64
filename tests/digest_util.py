"""sha256 digests that pin arrays bit for bit, dtype and shape included."""

import hashlib

import numpy as np


def array_digest(*arrays):
    """sha256 over the dtype, shape and bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def mesh_digest(mesh):
    """Digest of every array of a Mesh and of its hanging-node constraints."""
    c = mesh.hanging
    return array_digest(
        mesh.nodes, mesh.cells, mesh.cell_origin, mesh.cell_size, mesh.cell_level,
        mesh.boundary_cells, mesh.boundary_edges, mesh.boundary_markers,
        c.nodes, c.masters, c.weights,
    )
