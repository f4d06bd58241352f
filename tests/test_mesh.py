import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfem.mesh import (build_interval_mesh, build_periodic_cell_mesh,
                         build_unit_square_mesh)


class TestIntervalMesh:
    def test_two_cells(self):
        mesh = build_interval_mesh(2)
        assert np.allclose(mesh.vertices.ravel(), [0.0, 0.5, 1.0])
        assert mesh.num_cells == 2
        assert set(mesh.boundary) == {0, 2}

    def test_four_cells_spacing(self):
        mesh = build_interval_mesh(4)
        assert mesh.num_vertices == 5
        assert np.allclose(np.diff(mesh.vertices.ravel()), 0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty mesh"):
            build_interval_mesh(0)


class TestUnitSquareMesh:
    def test_single_cell(self):
        mesh = build_unit_square_mesh(1)
        assert mesh.num_vertices == 4
        assert mesh.num_cells == 2

    def test_two_cells_per_side(self):
        mesh = build_unit_square_mesh(2)
        assert mesh.num_vertices == 9
        assert mesh.num_cells == 8
        assert len(mesh.boundary) == 8

    def test_uniform_areas(self):
        for n in (1, 3, 4):
            mesh = build_unit_square_mesh(n)
            assert np.allclose(mesh.cell_measures, 1.0 / (2 * n * n))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_unit_square_mesh(0)


class TestPeriodicCellMesh:
    def test_1d_identification(self):
        mesh = build_periodic_cell_mesh(2, 1)
        assert np.allclose(mesh.vertices.ravel(), [0.0, 0.5, 1.0])
        assert mesh.periodic_map[2] == 0
        assert len(np.unique(mesh.master_vertices())) == 2

    def test_2d_independent_count(self):
        mesh = build_periodic_cell_mesh(2, 2)
        assert len(np.unique(mesh.master_vertices())) == 4

    def test_idempotent(self):
        for dim in (1, 2):
            mesh = build_periodic_cell_mesh(4, dim)
            pmap = mesh.periodic_map
            assert np.array_equal(pmap[pmap], pmap)

    def test_opposite_faces_paired(self):
        mesh = build_periodic_cell_mesh(3, 2)
        pmap = mesh.periodic_map
        slaves = np.nonzero(pmap != np.arange(mesh.num_vertices))[0]
        for s in slaves:
            xs, xm = mesh.vertices[s], mesh.vertices[pmap[s]]
            assert np.allclose(np.mod(xs, 1.0), np.mod(xm, 1.0))

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            build_periodic_cell_mesh(1, 1)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=40))
def test_measures_sum_to_domain_volume(n):
    assert abs(build_interval_mesh(n).cell_measures.sum() - 1.0) < 1e-12
    assert abs(build_unit_square_mesh(n).cell_measures.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("builder", [build_interval_mesh, build_unit_square_mesh])
@pytest.mark.parametrize("n", [2, 5])
def test_refinement_nests_vertices(builder, n):
    coarse = builder(n)
    fine = builder(2 * n)
    fine_set = {tuple(np.round(v, 12)) for v in fine.vertices}
    assert all(tuple(np.round(v, 12)) in fine_set for v in coarse.vertices)


def _explicit_square_cells(n):
    """The triangles square by square: vertex (i, j) is i*(n+1) + j, and the
    square at (i, j) gives (v00, v10, v11) and (v00, v11, v01)."""
    cells = []
    for i in range(n):
        for j in range(n):
            v00, v10 = i * (n + 1) + j, (i + 1) * (n + 1) + j
            v01, v11 = v00 + 1, v10 + 1
            cells += [(v00, v10, v11), (v00, v11, v01)]
    return np.array(cells)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_square_cells_in_explicit_order(n):
    # assembly sums cell contributions in this order, so round-off
    # depends on it; the periodic cell needs two cells per side
    meshes = [build_unit_square_mesh(n)]
    if n >= 2:
        meshes.append(build_periodic_cell_mesh(n, 2))
    for mesh in meshes:
        assert mesh.cells.dtype == np.dtype(int)
        assert np.array_equal(mesh.cells, _explicit_square_cells(n))


def test_positive_measures_enforced():
    from homfem.mesh import Mesh
    verts = np.array([[0.0], [0.0]])
    cells = np.array([[0, 1]])
    with pytest.raises(ValueError, match="non-positive measure"):
        Mesh(dim=1, vertices=verts, cells=cells, boundary=np.array([0, 1]),
             resolution=1)


def test_boundary_markers_cover_boundary():
    mesh = build_unit_square_mesh(3)
    on_bnd = np.any((mesh.vertices == 0.0) | (mesh.vertices == 1.0), axis=1)
    assert set(mesh.boundary) == set(np.nonzero(on_bnd)[0])
