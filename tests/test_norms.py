import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from homfem.coeff import HomogenizedTensor, TensorField
from homfem.fem import (DiscreteField, FemSpace, assemble_diffusion,
                        assemble_divergence_load, quadrature_rule,
                        solve_linear)
from homfem.mesh import (build_interval_mesh, build_periodic_cell_mesh,
                         build_unit_square_mesh)
from homfem.norms import (fit_rate, gradient_lp_norm,
                          h_convergence_probe, linf_norm, meyers_probe,
                          w1p_norm)

from conftest import (KERNEL_SPACES, assert_relative_close,
                      coupled_scenario_2d, flux_identity, piecewise_14_tensor,
                      space_1d)
from homfem.cell import homogenized_tensor_1d


class TestLinfNorm:
    def test_zero(self):
        assert linf_norm(space_1d(4).zero_field()) == 0.0

    def test_component_sups_are_summed(self):
        space = FemSpace(build_interval_mesh(4), 2)
        vals = np.zeros(space.num_dofs)
        vals[0::2] = 1.0
        vals[1::2] = -2.0
        assert linf_norm(DiscreteField(space, vals)) == 3.0

    def test_simple_nodal_values(self):
        space = space_1d(2)
        u = DiscreteField(space, np.array([0.0, 0.125, 0.0]))
        assert linf_norm(u) == 0.125


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, 9, elements=st.floats(-100, 100)),
       hnp.arrays(np.float64, 9, elements=st.floats(-100, 100)),
       st.floats(-10, 10))
def test_linf_triangle_and_homogeneity(a, b, c):
    space = FemSpace(build_interval_mesh(8), 1)
    ua, ub = DiscreteField(space, a), DiscreteField(space, b)
    assert linf_norm(ua + ub) <= linf_norm(ua) + linf_norm(ub) + 1e-12
    assert np.isclose(linf_norm(c * ua), abs(c) * linf_norm(ua), rtol=1e-12)


class TestW1pNorm:
    def test_zero(self):
        assert w1p_norm(space_1d(5).zero_field()) == 0.0

    def test_linear_field_p2(self):
        # u = x: int x^2 = 1/3, int (u')^2 = 1 -> sqrt(4/3)
        space = space_1d(16)
        u = DiscreteField(space, space.mesh.vertices.ravel().copy())
        assert np.isclose(w1p_norm(u), np.sqrt(4.0 / 3.0), atol=1e-12)

    def test_constant_components_on_unit_cell(self):
        # no gradient; the value part is (3^2 + 4^2) times the unit measure
        space = FemSpace(build_periodic_cell_mesh(4, 2), 2,
                         constrain_boundary=False)
        u = DiscreteField(space, np.tile([3.0, -4.0], space.num_indep_vertices))
        assert np.isclose(w1p_norm(u), 5.0, rtol=1e-12)

    def test_absolute_homogeneity(self):
        space = FemSpace(build_unit_square_mesh(5), 2)
        rng = np.random.default_rng(8)
        u = space.field_from_free(rng.standard_normal(space.num_free))
        assert np.isclose(w1p_norm(u * -2.5), 2.5 * w1p_norm(u), rtol=1e-12)

    def test_p2_matches_exact_mass_matrix_oracle(self):
        # int u^2 for P1 on a triangle is |T|/6 (a^2+b^2+c^2+ab+ac+bc)
        space = FemSpace(build_unit_square_mesh(5), 1)
        rng = np.random.default_rng(8)
        u = DiscreteField(space, rng.standard_normal(space.num_dofs))
        nodal = u.values[space.cell_dofs][:, :, 0]  # (nc, 3)
        a, b, c = nodal[:, 0], nodal[:, 1], nodal[:, 2]
        val_sq = np.sum(space.mesh.cell_measures / 6.0
                        * (a * a + b * b + c * c + a * b + a * c + b * c))
        direct = np.sqrt(val_sq + gradient_lp_norm(u, 2.0) ** 2)
        assert np.isclose(w1p_norm(u), direct, rtol=1e-12)

    def test_each_piece_jensen_monotone(self):
        # on a measure-one domain the scalar pieces obey Jensen in p;
        # the combined sum-form norm does not, so only the pieces are checked
        space = space_1d(64)
        u = DiscreteField(space, space.mesh.vertices.ravel().copy())
        value_lp = []
        for p in (2.0, 3.0, 4.0):
            bary_norm = (np.mean(np.abs(np.linspace(0, 1, 1000)) ** p)) ** (1 / p)
            value_lp.append(bary_norm)
        assert value_lp[0] <= value_lp[1] <= value_lp[2]
        grads = [gradient_lp_norm(u, p) for p in (2.0, 3.0, 4.0)]
        assert grads[0] <= grads[1] + 1e-12 and grads[1] <= grads[2] + 1e-12


def _einsum_w1p_norm(u):
    """The W^{1,2} norm by 3-point quadrature of the values and exact cell
    gradients, as it was computed before the Gram form."""
    space = u.space
    rule = quadrature_rule(space.mesh.dim, "3point")
    weights = rule.weights[None, :] * space.mesh.cell_measures[:, None]
    cellwise = u.values[space.cell_dofs]
    vals = np.einsum("qv,cva->cqa", rule.barycentric, cellwise)
    grads = np.einsum("cva,cvd->cad", cellwise, space.grads)
    return np.sqrt(np.einsum("cq,cqa->", weights, vals ** 2)
                   + np.einsum("c,cad->", space.mesh.cell_measures, grads ** 2))


@pytest.mark.parametrize("name", sorted(KERNEL_SPACES))
def test_w1p_norm_matches_quadrature_formula(name):
    space = KERNEL_SPACES[name]()
    rng = np.random.default_rng(5)
    for _ in range(3):
        u = DiscreteField(space, rng.standard_normal(space.num_dofs))
        assert_relative_close(w1p_norm(u), _einsum_w1p_norm(u), 1e-13)


def test_gram_matrix_built_once_per_space(monkeypatch):
    prop = FemSpace.__dict__["gram_matrix"]
    build, builds = prop.func, []

    def counted(space):
        builds.append(space)
        return build(space)

    monkeypatch.setattr(prop, "func", counted)
    space = FemSpace(build_unit_square_mesh(4), 2)
    u = space.field_from_free(np.ones(space.num_free))
    first = w1p_norm(u)
    assert w1p_norm(u * 2.0) == 2.0 * first
    assert builds == [space]


class TestFitRate:
    def test_exact_slope_one(self):
        slope, _ = fit_rate([(0.1, 0.01), (0.01, 0.001)])
        assert np.isclose(slope, 1.0)

    def test_exact_slope_two(self):
        slope, _ = fit_rate([(0.1, 0.01), (0.01, 0.0001)])
        assert np.isclose(slope, 2.0)

    def test_three_point_normal_equations(self):
        pts = [(0.1, 0.012), (0.05, 0.007), (0.01, 0.0009)]
        x = np.log([p[0] for p in pts])
        y = np.log([p[1] for p in pts])
        n = len(pts)
        sx, sy, sxx, sxy = x.sum(), y.sum(), (x * x).sum(), (x * y).sum()
        slope_hand = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        intercept_hand = (sy - slope_hand * sx) / n
        slope, intercept = fit_rate(pts)
        assert np.isclose(slope, slope_hand, atol=1e-12)
        assert np.isclose(intercept, intercept_hand, atol=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([(0.1, 0.0), (0.01, 0.001)])
        with pytest.raises(ValueError):
            fit_rate([(0.1, 0.01)])


# closed-form data for the 1D two-phase family with load g(x) = x:
# flux a u' + g is constant, u' = (c - x)/a, and the small-period limits are
#   |u' - uhat'|_L2^2 -> int (1/2 - x)^2 dx * Var(1/a) = (1/12) * 0.140625
#   |u'|_Lp^p        -> int |1/2 - x|^p dx * mean(a^-p)
GRAD_L2_DIFF_LIMIT = np.sqrt(0.140625 / 12.0)


def _grad_lp_limit(p):
    return ((0.5 ** p / (p + 1.0)) * 0.5 * (1.0 + 4.0 ** (-p))) ** (1.0 / p)


class TestHConvergenceProbe:
    def test_constant_tensor_is_its_own_limit(self):
        t = TensorField.constant(1, 1, 1.6)
        ahat = homogenized_tensor_1d(piecewise_14_tensor())
        rows = h_convergence_probe(t, ahat, flux_identity, [0.25, 0.125])
        for r in rows:
            assert r.pairings.max() <= 1e-12
            assert r.linf_diff <= 1e-12

    def test_two_phase_weak_but_not_strong(self):
        base = piecewise_14_tensor()
        ahat = homogenized_tensor_1d(base)
        rows = h_convergence_probe(base, ahat, flux_identity,
                                   [1 / 8, 1 / 16, 1 / 32, 1 / 64])
        for a, b in zip(rows, rows[1:]):
            assert np.all(b.pairings < a.pairings)
            assert b.linf_diff < a.linf_diff
        # flux pairings vanish identically here: the discrete flux
        # difference is a constant and test functions vanish on the boundary
        for r in rows:
            assert r.flux_pairings.max() <= 1e-10
        # gradients do not converge strongly; the L2 gap has a closed-form
        # limit and must stay near it
        assert rows[-1].grad_l2_diff >= 0.1 * rows[0].grad_l2_diff
        assert abs(rows[-1].grad_l2_diff - GRAD_L2_DIFF_LIMIT) \
            <= 0.05 * GRAD_L2_DIFF_LIMIT

    def test_defect_family_converges_to_defect_free_limit(self):
        from homfem.coeff import add_defect
        base = piecewise_14_tensor()
        bump = TensorField.piecewise(1, 1, (4,), [0.0, 0.75, 0.0, 0.0],
                                     zero_outside=True)
        family = add_defect(base, bump, 0.125).with_epsilon(None)
        ahat = homogenized_tensor_1d(base)
        rows = h_convergence_probe(family, ahat, flux_identity,
                                   [1 / 8, 1 / 16, 1 / 32, 1 / 64])
        for a, b in zip(rows, rows[1:]):
            assert np.all(b.pairings < a.pairings)

    def test_2d_mode_count(self):
        identity = np.eye(2).reshape(1, 1, 2, 2)
        (row,) = h_convergence_probe(
            TensorField.constant(1, 2, identity), HomogenizedTensor(identity),
            lambda pts: pts[:, None, :], [1 / 2], modes=3, cells_per_eps=2)
        assert row.pairings.shape == row.flux_pairings.shape == (9,)

    def test_2d_laminate_pairings_decrease(self):
        from homfem.cell import solve_cell_problems
        from homfem.mesh import build_periodic_cell_mesh
        base = TensorField.piecewise(1, 2, (2, 1), [1.0, 4.0])
        cm = build_periodic_cell_mesh(16, 2)
        ahat = solve_cell_problems(base, cm).ahat

        def flux(pts):
            out = np.zeros((pts.shape[0], 1, 2))
            out[:, 0, 0] = pts[:, 0]
            out[:, 0, 1] = pts[:, 1]
            return out

        rows = h_convergence_probe(base, ahat, flux, [1 / 4, 1 / 8],
                                   cells_per_eps=8)
        assert np.all(rows[1].pairings < rows[0].pairings)
        assert rows[1].linf_diff < rows[0].linf_diff


def _sine_test_functions_2d(modes):
    """The probe's tensor-product sines, as (value, gradient) closures."""
    def val(pts, k, l):
        return np.sin(k * np.pi * pts[:, 0]) * np.sin(l * np.pi * pts[:, 1])

    def grad(pts, k, l):
        s1, c1 = np.sin(k * np.pi * pts[:, 0]), np.cos(k * np.pi * pts[:, 0])
        s2, c2 = np.sin(l * np.pi * pts[:, 1]), np.cos(l * np.pi * pts[:, 1])
        return np.column_stack([k * np.pi * c1 * s2, l * np.pi * s1 * c2])

    return [(lambda pts, k=k, l=l: val(pts, k, l),
             lambda pts, k=k, l=l: grad(pts, k, l))
            for k in range(1, modes + 1) for l in range(1, modes + 1)]


def _einsum_pairings(row, tensor_family, ahat, flux_fn, test_functions):
    """Per-test-function pairings of one probe row, contracted one einsum
    at a time as the probe did before it weighted the differences once."""
    space = row.u_eps.space
    nc, nq = space.quad_points.shape[:2]
    n, dim = space.n, space.mesh.dim
    pts = space.quad_points.reshape(nc * nq, dim)
    load = assemble_divergence_load(
        space, flux_fn(pts).reshape(nc, nq, n, dim))
    u_hat = solve_linear(assemble_diffusion(space, ahat.as_tensor_field()),
                         -load)
    du_q = space.values_at_quadrature(row.u_eps.values - u_hat.values)
    a_eps = tensor_family.with_epsilon(row.eps).evaluate(pts).reshape(
        nc, nq, n, n, dim, dim)
    flux_eps = np.einsum("cqabij,cbj->cqai", a_eps,
                         space.gradients_on_cells(row.u_eps.values))
    flux_hat = np.einsum("abij,cbj->cai", ahat.values,
                         space.gradients_on_cells(u_hat.values))
    dflux = flux_eps - flux_hat[:, None, :, :]
    pairings, flux_pairings = [], []
    for val, grad in test_functions:
        psi = val(pts).reshape(nc, nq)
        dpsi = grad(pts).reshape(nc, nq, dim)
        pairings.append(abs(np.einsum("cq,cq,cqa->a", space.quad_weights,
                                      psi, du_q)).sum())
        flux_pairings.append(abs(np.einsum("cq,cqai,cqi->a",
                                           space.quad_weights, dflux,
                                           dpsi)).sum())
    return np.array(pairings), np.array(flux_pairings)


def test_probe_pairings_match_per_function_einsum():
    from homfem.cell import solve_cell_problems
    base, _ = coupled_scenario_2d()
    ahat = solve_cell_problems(base, build_periodic_cell_mesh(8, 2)).ahat

    def flux(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([np.stack([x * y, np.sin(np.pi * x)], axis=1),
                         np.stack([1.0 + y, x - y], axis=1)], axis=1)

    fns = _sine_test_functions_2d(modes=3)
    rows = h_convergence_probe(base, ahat, flux, [1 / 2, 1 / 4], modes=3,
                               cells_per_eps=4)
    for row in rows:
        pairings, flux_pairings = _einsum_pairings(row, base, ahat, flux, fns)
        assert row.pairings.max() > 0 and row.flux_pairings.max() > 0
        assert_relative_close(row.pairings, pairings, 1e-12)
        assert_relative_close(row.flux_pairings, flux_pairings, 1e-12)


def _linear_solves(tensor, eps_list):
    ahat = homogenized_tensor_1d(tensor)
    return h_convergence_probe(tensor, ahat, flux_identity, eps_list)


class TestMeyersProbe:
    def test_constant_tensor_eps_independent(self):
        # no oscillation: columns vary only by the per-row mesh refinement
        t = TensorField.constant(1, 1, 2.0)
        table = meyers_probe(_linear_solves(t, [0.25, 0.125, 0.0625]),
                             [2.0, 3.0, 4.0])
        for c in range(3):
            col = table.norms[:, c]
            assert np.max(col) - np.min(col) <= 1e-2 * np.max(col)
        assert table.observed_range == 4.0

    def test_two_phase_matches_distribution_oracle(self):
        base = piecewise_14_tensor()
        table = meyers_probe(_linear_solves(base, [1 / 16, 1 / 32, 1 / 64]),
                             [2.0, 3.0, 4.0])
        for c, p in enumerate(table.p_grid):
            assert abs(table.norms[-1, c] - _grad_lp_limit(p)) \
                <= 0.02 * _grad_lp_limit(p)
        # energy column is always bounded across the sweep
        assert table.stable[0]

    def test_p_grid_range_checked(self):
        with pytest.raises(ValueError):
            meyers_probe(_linear_solves(piecewise_14_tensor(), [0.25]), [1.0])
