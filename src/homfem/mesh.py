"""Uniform simplicial meshes of the computational domains.

Three domains are supported: the unit interval, the unit square and the
periodic unit cell in one or two dimensions.  All meshes are structured and
uniform; the square is triangulated with the diagonal running from the
lower-left to the upper-right corner of each grid square, so connectivity is
deterministic and refinement by doubling nests the vertex sets.
:func:`sample_grid` is the uniform midpoint grid on which coefficients and
flux factors are sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "build_interval_mesh",
    "build_unit_square_mesh",
    "build_periodic_cell_mesh",
    "sample_grid",
]


@dataclass(frozen=True)
class Mesh:
    """A simplicial mesh with boundary and periodic-identification metadata.

    Attributes
    ----------
    dim : int
        Space dimension, 1 or 2.
    vertices : ndarray, shape (nv, dim)
        Vertex coordinates.
    cells : ndarray, shape (nc, dim + 1)
        Vertex indices of each segment / triangle.
    boundary : ndarray
        Indices of vertices on the domain boundary (empty for periodic
        meshes, where opposite faces are identified instead).
    periodic_map : ndarray or None
        For periodic meshes, ``periodic_map[v]`` is the master vertex that
        ``v`` is identified with (the identity on non-slave vertices).
    resolution : int
        Cells per side of the structured grid; ``spacing`` is its inverse.
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    boundary: np.ndarray
    periodic_map: np.ndarray | None = None
    resolution: int = 0
    _measures: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        for arr in (self.vertices, self.cells, self.boundary):
            arr.setflags(write=False)
        if self.periodic_map is not None:
            self.periodic_map.setflags(write=False)
        meas = _cell_measures(self.vertices, self.cells, self.dim)
        if np.any(meas <= 0.0):
            bad = int(np.argmin(meas))
            raise ValueError(f"cell {bad} has non-positive measure {meas[bad]}")
        meas.setflags(write=False)
        object.__setattr__(self, "_measures", meas)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def cell_measures(self) -> np.ndarray:
        """Length / area of every cell."""
        return self._measures

    @property
    def h(self) -> float:
        """Largest cell diameter."""
        pts = self.vertices[self.cells]  # (nc, dim+1, dim)
        if self.dim == 1:
            return float(np.max(np.abs(pts[:, 1, 0] - pts[:, 0, 0])))
        edges = [
            pts[:, a, :] - pts[:, b, :] for a, b in ((0, 1), (1, 2), (2, 0))
        ]
        return float(max(np.max(np.linalg.norm(e, axis=1)) for e in edges))

    @property
    def spacing(self) -> float:
        """Grid spacing 1/resolution; the oscillation-resolution rule
        h <= eps/ratio is checked against this, not the triangle diameter."""
        return 1.0 / self.resolution

    @property
    def is_periodic(self) -> bool:
        return self.periodic_map is not None

    def master_vertices(self) -> np.ndarray:
        """Vertex index array with periodic slaves replaced by masters."""
        if self.periodic_map is None:
            return np.arange(self.num_vertices)
        return self.periodic_map


def _cell_measures(vertices, cells, dim):
    pts = vertices[cells]
    if dim == 1:
        return pts[:, 1, 0] - pts[:, 0, 0]
    e1 = pts[:, 1, :] - pts[:, 0, :]
    e2 = pts[:, 2, :] - pts[:, 0, :]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def build_interval_mesh(n: int) -> Mesh:
    """Uniform mesh of (0, 1) with ``n`` segments.

    Boundary markers sit at the two endpoints.
    """
    if n < 1:
        raise ValueError("empty mesh: need at least one cell")
    vertices = np.linspace(0.0, 1.0, n + 1).reshape(-1, 1)
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    boundary = np.array([0, n])
    return Mesh(dim=1, vertices=vertices, cells=cells, boundary=boundary,
                resolution=n)


def _square_grid(n: int):
    """Vertices and lower-left-to-upper-right triangulation of [0,1]^2."""
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # vertex (i, j) is i*(n+1) + j; the square with lower-left corner v00
    # gives (v00, v10, v11) and (v00, v11, v01), diagonal v00 -- v11
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    cells = (v00[:, None] + np.array([0, n + 1, n + 2, 0, n + 2, 1])
             ).reshape(-1, 3)
    return vertices, cells


def build_unit_square_mesh(n: int) -> Mesh:
    """Structured triangulation of (0, 1)^2 with ``n`` cells per side."""
    if n < 1:
        raise ValueError("empty mesh: need at least one cell per side")
    vertices, cells = _square_grid(n)
    on_bnd = np.any((vertices == 0.0) | (vertices == 1.0), axis=1)
    boundary = np.nonzero(on_bnd)[0]
    return Mesh(dim=2, vertices=vertices, cells=cells, boundary=boundary,
                resolution=n)


def sample_grid(dim, per_axis):
    """Midpoints of a uniform per_axis**dim grid over (0,1)^dim."""
    ticks = (np.arange(per_axis) + 0.5) / per_axis
    if dim == 1:
        return ticks.reshape(-1, 1)
    xx, yy = np.meshgrid(ticks, ticks, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def build_periodic_cell_mesh(n: int, dim: int) -> Mesh:
    """Uniform mesh of the unit cell (0,1)^dim with opposite faces identified.

    Vertices with any coordinate equal to 1 are slaves of the vertex obtained
    by wrapping that coordinate to 0, which leaves ``n**dim`` independent
    vertices.
    """
    if n < 2:
        raise ValueError("periodic cell mesh needs n >= 2")
    if dim == 1:
        vertices = np.linspace(0.0, 1.0, n + 1).reshape(-1, 1)
        cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
        pmap = np.arange(n + 1)
        pmap[n] = 0
    elif dim == 2:
        vertices, cells = _square_grid(n)
        idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
        pmap = idx.copy()
        pmap[n, :] = pmap[0, :]
        pmap[:, n] = pmap[:, 0]
        pmap = pmap.ravel()
    else:
        raise ValueError(f"unsupported dimension {dim}")
    return Mesh(dim=dim, vertices=vertices, cells=cells,
                boundary=np.array([], dtype=int), periodic_map=pmap,
                resolution=n)
