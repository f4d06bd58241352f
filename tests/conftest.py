"""Shared scenario builders for the test suite."""

import numpy as np
import pytest

from homfem import (HomogenizedTensor, SolverConfig, TensorField,
                    homogenized_tensor_1d)
from homfem.fem import FemSpace
from homfem.mesh import (build_interval_mesh, build_periodic_cell_mesh,
                         build_unit_square_mesh)
from homfem.nonlin import Constant, ExpressionFactor, Nonlinearity, Polynomial


def piecewise_14_tensor():
    """1D two-phase coefficient: 1 on the first half cell, 4 on the second."""
    return TensorField.piecewise(1, 1, (2,), [1.0, 4.0])


def oscillatory_scenario_1d():
    """The workhorse scenario: 1D two-phase tensor with a mild quadratic flux.

    Flux: f(x, u) = 0.5 sin(2 pi x) + 0.25 u^2.
    """
    base = piecewise_14_tensor()
    ahat = homogenized_tensor_1d(base)
    nl = Nonlinearity(1, 1, [], p0=4.0)
    nl.term(0, 0, ExpressionFactor("0.5*sin(2*pi*x)", 1), Constant(1.0, 1))
    nl.term(0, 0, ExpressionFactor("0.25", 1), Polynomial([(1.0, (2,))], 1))
    return base, ahat, nl


def space_1d(n, quadrature="midpoint"):
    return FemSpace(build_interval_mesh(n), 1, quadrature=quadrature)


# spaces on which the sparse per-space kernels are checked against the
# einsum formulas they replace: 1D, 2D with each quadrature rule, and a
# two-per-axis periodic cell whose slave vertices share their master's dofs
KERNEL_SPACES = {
    "interval": lambda: FemSpace(build_interval_mesh(9), 1),
    "square-midpoint": lambda: FemSpace(build_unit_square_mesh(5), 2),
    "square-3point": lambda: FemSpace(build_unit_square_mesh(5), 2,
                                      quadrature="3point"),
    "periodic-cell": lambda: FemSpace(build_periodic_cell_mesh(2, 2), 2,
                                      constrain_boundary=False),
}


def assert_relative_close(actual, reference, rtol):
    """Max-norm agreement relative to the reference's largest entry."""
    actual, reference = np.asarray(actual), np.asarray(reference)
    assert actual.shape == reference.shape
    assert np.max(np.abs(actual - reference)) <= rtol * np.max(np.abs(reference))


def coupled_scenario_2d():
    """2D two-component system with a symmetric, mildly coupled oscillatory
    tensor (isotropic in the derivative indices) and quadratic flux terms."""
    osc11 = "2 + 0.8*cos(2*pi*x1)"
    osc22 = "2 + 0.8*sin(2*pi*x2)"
    entries = [[[[0.0] * 2 for _ in range(2)] for _ in range(2)]
               for _ in range(2)]
    for a in range(2):
        for b in range(2):
            for i in range(2):
                if a == b == 0:
                    entries[a][b][i][i] = osc11
                elif a == b == 1:
                    entries[a][b][i][i] = osc22
                else:
                    entries[a][b][i][i] = "0.25"
    base = TensorField.from_expressions(2, 2, entries)
    nl = Nonlinearity(2, 2, [], p0=4.0)
    nl.term(0, 0, ExpressionFactor("0.5*sin(2*pi*x1)", 2), Constant(1.0, 2))
    nl.term(0, 0, ExpressionFactor("0.25", 2), Polynomial([(1.0, (2, 0))], 2))
    nl.term(1, 1, ExpressionFactor("0.5*sin(2*pi*x2)", 2), Constant(1.0, 2))
    nl.term(1, 1, ExpressionFactor("0.2", 2), Polynomial([(1.0, (1, 1))], 2))
    return base, nl


def flux_identity(pts):
    """Probe load g_i^a(x) = x_i for every component."""
    m, dim = pts.shape
    out = np.zeros((m, 1, dim))
    for i in range(dim):
        out[:, 0, i] = pts[:, i]
    return out


@pytest.fixture
def scenario_1d():
    return oscillatory_scenario_1d()
