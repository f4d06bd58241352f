"""Shared scenario builders for the test suite."""

import sys
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
import scipy.sparse as sp

from homfem import (ConstantTensor, ExpressionTensor, FrozenOperator,
                    HomogenizedTensor, PiecewiseTensor, SolverConfig,
                    TensorField, approximate_solution, fixed_point_solve,
                    homogenized_tensor_1d)
from homfem.fem import (FemSpace, _restrict, assemble_diffusion,
                        assemble_divergence_load, solve_linear)
from homfem.mesh import (build_interval_mesh, build_periodic_cell_mesh,
                         build_unit_square_mesh)
from homfem.nonlin import Constant, Monomial, Nonlinearity, Polynomial, Term
from homfem.norms import h_convergence_probe


def constant_field(n, dim, value):
    return TensorField(n, dim, ConstantTensor(kind="constant", value=value))


def piecewise_field(n, dim, grid, values):
    return TensorField(n, dim, PiecewiseTensor(kind="piecewise", grid=grid,
                                               values=values))


def expression_field(n, dim, entries):
    return TensorField(n, dim, ExpressionTensor(kind="expression",
                                                entries=entries))


def bound_flux(n, dim, *terms, p0=4.0):
    """The flux with exponent ``p0`` and a term per ``(target, g, h)``,
    ``target`` counted from 1 as in a config, bound to ``n`` and ``dim``."""
    return Nonlinearity(p0, [Term(target=list(target), g=g, h=h)
                             for target, g, h in terms]).bind(n, dim)


def piecewise_14_tensor():
    """1D two-phase coefficient: 1 on the first half cell, 4 on the second."""
    return piecewise_field(1, 1, (2,), [1.0, 4.0])


def oscillatory_scenario_1d():
    """The workhorse scenario: 1D two-phase tensor with a mild quadratic flux.

    Flux: f(x, u) = 0.5 sin(2 pi x) + 0.25 u^2.
    """
    base = piecewise_14_tensor()
    ahat = homogenized_tensor_1d(base)
    nl = bound_flux(1, 1, ([1, 1], "0.5*sin(2*pi*x)", Constant(1.0)),
                    ([1, 1], "0.25", Polynomial([Monomial(1.0, [2])])))
    return base, ahat, nl


def config_key_paths(section, prefix=""):
    """Every YAML key path of a config dataclass: its init fields, the
    fields of its nested sections as ``section.key``, and each section in a
    list as ``section[k]``, with its fields as ``section[k].key``."""
    for f in fields(section):
        if f.init:
            key = prefix + f.name
            yield key
            value = getattr(section, f.name)
            if is_dataclass(value):
                yield from config_key_paths(value, f"{key}.")
            for k, entry in enumerate(value if isinstance(value, list)
                                      else []):
                if is_dataclass(entry):
                    yield f"{key}[{k}]"
                    yield from config_key_paths(entry, f"{key}[{k}].")


def space_1d(n, quadrature="midpoint"):
    return FemSpace(build_interval_mesh(n), 1, quadrature=quadrature)


def effective_operator(space, ahat):
    """``Ahat`` assembled on ``space``, as the solver stages take it."""
    return assemble_diffusion(space, ahat)


def fixed_point_from_ubar(A_eps, nl, u0, cfg):
    """The pipeline's fixed point: over the frozen operator at ``u0``,
    started at the approximate solution; returns ``(u_eps, report)``."""
    frozen = FrozenOperator(A_eps, nl, u0)
    return fixed_point_solve(frozen, approximate_solution(frozen), cfg)


# spaces on which the sparse per-space kernels are checked against the
# einsum formulas they replace: 1D, 2D with each quadrature rule, and a
# two-per-axis periodic cell whose slave vertices share their master's dofs
KERNEL_SPACES = {
    "interval": lambda: FemSpace(build_interval_mesh(9), 1),
    "square-midpoint": lambda: FemSpace(build_unit_square_mesh(5), 2),
    "square-3point": lambda: FemSpace(build_unit_square_mesh(5), 2,
                                      quadrature="3point"),
    "periodic-cell": lambda: FemSpace(build_periodic_cell_mesh(2, 2), 2),
}


def unique_pattern(cells, size):
    """The pattern oracle: the construction that ``fem._block_pattern``
    replaced, ``np.unique(..., return_inverse=True)`` over the int64 key
    ``row * size + column`` of every (cell, test vertex, trial vertex)
    triple.  ``cells`` (nc, nv) holds vertex indices over ``size``
    vertices, -1 for a vertex left out; returns ``(indices, indptr,
    slot)`` as ``VertexPattern`` holds them."""
    nc, nv = cells.shape
    rows = np.broadcast_to(cells[:, :, None], (nc, nv, nv)).ravel()
    cols = np.broadcast_to(cells[:, None, :], (nc, nv, nv)).ravel()
    kept = (rows >= 0) & (cols >= 0)
    keys, inverse = np.unique(rows[kept] * size + cols[kept],
                              return_inverse=True)
    slot = np.full(rows.size, keys.size, dtype=np.int32)
    slot[kept] = inverse
    block_rows, indices = np.divmod(keys, size)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(block_rows, minlength=size), out=indptr[1:])
    return indices.astype(np.int32), indptr, slot


def one_call_diffusion(space, tensor):
    """The integration that ``assemble_diffusion`` replaced: the tensor
    evaluated at every quadrature point in one call, integrated over each
    cell by ``einsum("cq,cq...->c...")``, then summed into the space's
    pattern as ``assemble_diffusion`` sums it."""
    nc, nq = space.quad_points.shape[:2]
    values = tensor.evaluate(
        space.quad_points.reshape(nc * nq, space.mesh.dim))
    cell_a = np.einsum("cq,cq...->c...", space.quad_weights,
                       values.reshape(nc, nq, *values.shape[1:]))
    grads = space.grads
    return _restrict(space, lambda a, b: np.einsum(
        "cij,cwi,cvj->cwv", cell_a[:, a, b], grads, grads, optimize=True))


def mode_loop_pairings(pts, modes, wdu, wdflux):
    """The mode loop that ``norms._sine_pairings`` replaced: each sine
    mode's values and gradients at every point, by angle addition over
    whole point arrays, paired with ``wdu`` and ``wdflux`` by the same
    einsum sums; returns the two lists of pairings."""
    def harmonics(s1, c1):
        s, c = s1, c1
        for k in range(1, modes + 1):
            if k > 1:
                s, c = s * c1 + c * s1, c * c1 - s * s1
            yield k, s, c

    def sine_modes():
        axes = [(np.sin(np.pi * x), np.cos(np.pi * x)) for x in pts.T]
        for k, s1, c1 in harmonics(*axes[0]):
            d1 = k * np.pi * c1
            if len(axes) == 1:
                yield s1, d1
                continue
            for l, s2, c2 in harmonics(*axes[1]):
                yield s1 * s2, np.column_stack(
                    [d1 * s2, l * np.pi * s1 * c2]).ravel()

    pairings, flux_pairings = [], []
    for val, grad in sine_modes():
        pairings.append(abs(np.einsum("ap,p->a", wdu, val)).sum())
        flux_pairings.append(abs(np.einsum("ap,p->a", wdflux, grad)).sum())
    return pairings, flux_pairings


def coo_restrict(space, local):
    """The assembly that ``FemSpace.vertex_pattern`` replaced: local blocks
    (nc, nv, n, nv, n) scattered as a COO over all dofs, summed in CSR,
    restricted to the free dofs.  It stores every entry the cells touch,
    also one that cancels to exactly zero."""
    rows = np.broadcast_to(space.cell_dofs[:, :, :, None, None], local.shape)
    cols = np.broadcast_to(space.cell_dofs[:, None, None, :, :], local.shape)
    full = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(space.num_dofs, space.num_dofs)).tocsr()
    free = space.free_dofs
    return full[free][:, free].tocsr()


def coo_diffusion(space, tensor):
    """Reference ``assemble_diffusion(space, tensor).matrix``."""
    nc, nq = space.quad_points.shape[:2]
    a = tensor.evaluate(space.quad_points.reshape(nc * nq, space.mesh.dim))
    a = a.reshape(nc, nq, *a.shape[1:])
    local = np.einsum("cq,cqabij,cwi,cvj->cwavb", space.quad_weights, a,
                      space.grads, space.grads, optimize=True)
    return coo_restrict(space, local)


def coo_jacobian_coupling(space, jac):
    """Reference ``assemble_jacobian_coupling(space, jac).matrix``."""
    local = np.einsum("cq,cqaib,qv,cwi->cwavb", space.quad_weights, jac,
                      space.quad.barycentric, space.grads, optimize=True)
    return coo_restrict(space, local)


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
    base = expression_field(2, 2, entries)
    nl = bound_flux(2, 2, ([1, 1], "0.5*sin(2*pi*x1)", Constant(1.0)),
                    ([1, 1], "0.25", Polynomial([Monomial(1.0, [2, 0])])),
                    ([2, 2], "0.5*sin(2*pi*x2)", Constant(1.0)),
                    ([2, 2], "0.2", Polynomial([Monomial(1.0, [1, 1])])))
    return base, nl


def probe_rows(tensor, ahat, flux_fn, eps_list, modes=4, cells_per_eps=8):
    """The linear probe at each scale of ``eps_list``, as ``homfem probe``
    runs it: on its own mesh of ``max(4, round(cells_per_eps / eps))``
    cells per side under the 3-point rule, factoring both matrices, with
    the load of ``g = flux_fn`` at the quadrature points."""
    rows = []
    for eps in eps_list:
        cells = max(4, round(cells_per_eps / eps))
        mesh = (build_interval_mesh(cells) if tensor.dim == 1
                else build_unit_square_mesh(cells))
        space = FemSpace(mesh, tensor.n, quadrature="3point")
        nc, nq = space.quad_points.shape[:2]
        load = assemble_divergence_load(space, flux_fn(
            space.quad_points.reshape(nc * nq, tensor.dim)).reshape(
                nc, nq, tensor.n, tensor.dim))
        u_hat = solve_linear(assemble_diffusion(space, ahat), -load)
        rows.append(h_convergence_probe(tensor.with_epsilon(eps), ahat,
                                        u_hat, load, modes))
    return rows


def flux_identity(pts):
    """Probe load g_i^a(x) = x_i for every component."""
    m, dim = pts.shape
    out = np.zeros((m, 1, dim))
    for i in range(dim):
        out[:, 0, i] = pts[:, i]
    return out


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` wraps ``fn`` wherever homfem binds it and returns
    the list of the first positional argument of every call."""
    def install(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if ((name == "homfem" or name.startswith("homfem."))
                    and getattr(module, fn.__name__, None) is fn):
                monkeypatch.setattr(module, fn.__name__, counted)
        return calls
    return install


@pytest.fixture
def superlu_calls(monkeypatch):
    """The matrices that ``homfem.fem`` hands to SuperLU (``spla.splu``)
    while the test runs."""
    import homfem.fem

    calls = []
    splu = homfem.fem.spla.splu

    def counted(matrix, *args, **kwargs):
        calls.append(matrix)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(homfem.fem.spla, "splu", counted)
    return calls


@pytest.fixture
def blas_norms(monkeypatch):
    """The homfem modules that ask ``np.linalg.norm`` for a vector 2-norm
    while the test runs; each such call also raises.  Its BLAS dot splits
    a long vector across threads, so the result's last bits would follow
    the thread count.  Max-norms and ``axis=`` calls pass through."""
    norm, asked = np.linalg.norm, []

    def guarded(x, ord=None, axis=None, keepdims=False):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.startswith("homfem") and axis is None and ord in (
                None, 2, "fro"):
            asked.append(caller)
            raise AssertionError(f"{caller} takes a 2-norm through BLAS")
        return norm(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "norm", guarded)
    return asked


@pytest.fixture
def scenario_1d():
    return oscillatory_scenario_1d()
