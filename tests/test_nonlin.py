import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfem.cli import parse_config
from homfem.fem import DiscreteField, FemSpace
from homfem.mesh import build_interval_mesh
from homfem.nonlin import (Constant, ExpLinear, ExpressionFactor,
                           Nonlinearity, Polynomial, Rational, Sinusoid,
                           TableFactor, Term, eval_F, eval_F_jacobian,
                           validate)

from conftest import space_1d

# a 1D config whose only flux term is 0.25 / (1 + c u)
_RATIONAL_CONFIG = """
domain: interval
tensor: {{kind: piecewise, grid: [2], values: [1.0, 4.0]}}
nonlinearity:
  p0: 4.0
  terms:
    - target: [1, 1]
      g: "0.25"
      h: {{kind: rational, numerator: [{{coeff: 1.0, powers: [0]}}],
          denominator: [{{coeff: 1.0, powers: [0]}},
                        {{coeff: {c}, powers: [1]}}]}}
eps: [0.125]
"""


def _gradient_matches_central_differences(h, u, delta=1e-4):
    """True when h.gradient agrees with central differences at every row
    of u, to 1e-6 relative to 1 + |gradient|."""
    grad = h.gradient(u)
    for b in range(u.shape[1]):
        step = np.zeros(u.shape[1])
        step[b] = delta
        fd = (h(u + step) - h(u - step)) / (2 * delta)
        if not np.all(np.abs(fd - grad[:, b])
                      <= 1e-6 * (1.0 + np.abs(grad[:, b]))):
            return False
    return True


def _catalog_members(n=2):
    return [
        Polynomial([(1.0, (3, 0)), (-0.5, (1, 1))], n),
        Sinusoid("sin", [1.0, -2.0], 0.3, n),
        Sinusoid("cos", [0.7, 0.2], 0.0, n),
        ExpLinear([0.5, -0.5], 0.1, n),
        Rational(Polynomial([(1.0, (1, 0))], n),
                 Polynomial([(1.0, (0, 0)), (1.0, (2, 0)), (1.0, (0, 2))], n)),
    ]


class TestCatalog:
    def test_polynomial_values(self):
        h = Polynomial([(1.0, (2,))], 1)
        assert np.allclose(h(np.array([[2.0]])), [4.0])

    def test_cubic_derivative_at_two(self):
        h = Polynomial([(1.0, (3,))], 1)
        assert np.allclose(h.gradient(np.array([[2.0]])), [[12.0]])

    def test_rational_pole_detected(self):
        # pole at u = -5: the denominator check raises there
        den = Polynomial([(1.0, (1,)), (5.0, (0,))], 1)
        num = Polynomial([(1.0, (0,))], 1)
        with pytest.raises(ValueError, match="denominator"):
            Rational(num, den)(np.array([[-5.0]]))

    @pytest.mark.parametrize("h", _catalog_members(), ids=lambda h: type(h).__name__)
    def test_central_difference_oracle(self, h):
        # 100 random samples per member
        rng = np.random.default_rng(11)
        assert _gradient_matches_central_differences(
            h, rng.uniform(-1.0, 1.0, size=(100, 2)))

    def test_broken_derivative_caught_by_oracle(self):
        # construction no longer second-guesses the analytic derivative;
        # the oracle above is what rejects a wrong one
        class Broken(Polynomial):
            def gradient(self, u):
                return super().gradient(u) + 1.0

        u = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
        assert _gradient_matches_central_differences(
            Polynomial([(1.0, (2,))], 1), u)
        assert not _gradient_matches_central_differences(
            Broken([(1.0, (2,))], 1), u)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(-3, 3),
                              st.tuples(st.integers(0, 4), st.integers(0, 4))),
                    min_size=1, max_size=4))
    def test_polynomial_gradient_property(self, monomials):
        h = Polynomial(monomials, 2)
        rng = np.random.default_rng(6)
        u = rng.uniform(-1.0, 1.0, size=(20, 2))
        delta = 1e-5
        grad = h.gradient(u)
        for b in range(2):
            step = np.zeros(2)
            step[b] = delta
            fd = (h(u + step) - h(u - step)) / (2 * delta)
            assert np.all(np.abs(fd - grad[:, b])
                          <= 1e-5 * (1.0 + np.abs(grad[:, b])))

    @pytest.mark.parametrize("c", [1.0, -2.0, -1.5],
                             ids=["1/(1+u)", "1/(1-2u)", "1/(1-1.5u)"])
    def test_rational_near_pole_parses_with_exact_gradient(self, c):
        # h = 1/(1 + c u) has its pole -1/c in [-1, 1]; away from the pole
        # the analytic gradient matches central differences
        cfg = parse_config(_RATIONAL_CONFIG.format(c=c))
        h = cfg.flux.terms[0].h
        u = np.linspace(-1.0, 1.0, 401)
        u = u[np.abs(u + 1.0 / c) >= 0.25].reshape(-1, 1)
        assert np.allclose(h(u), 1.0 / (1.0 + c * u[:, 0]), rtol=1e-14)
        assert _gradient_matches_central_differences(h, u)


@pytest.mark.parametrize("alpha, i", [(1, 0), (0, 1), (-1, 0)])
def test_term_target_outside_the_index_range_rejected(alpha, i):
    # the constructor and term() share one range check
    g, h = ExpressionFactor("1", 1), Constant(1.0, 1)
    with pytest.raises(ValueError, match="flux index range"):
        Nonlinearity(1, 1, [Term(alpha, i, g, h, 4.0)], p0=4.0)
    with pytest.raises(ValueError, match="flux index range"):
        Nonlinearity(1, 1, [], p0=4.0).term(alpha, i, g, h)


class TestEvalF:
    def _u_field(self, space, fn):
        x = space.mesh.vertices.ravel()
        return DiscreteField(space, fn(x))

    def test_u_independent_flux(self):
        space = space_1d(8)
        nl = Nonlinearity(1, 1, [], p0=4.0)
        nl.term(0, 0, ExpressionFactor("x", 1), Constant(1.0, 1))
        for fn in (np.zeros_like, np.ones_like):
            u = self._u_field(space, fn)
            vals = eval_F(nl, space, u)
            assert np.allclose(vals[:, :, 0, 0], space.quad_points[:, :, 0])

    def test_square_of_constant_field(self):
        space = space_1d(4)
        nl = Nonlinearity(1, 1, [], p0=4.0)
        nl.term(0, 0, ExpressionFactor("1", 1), Polynomial([(1.0, (2,))], 1))
        u = self._u_field(space, lambda x: np.full_like(x, 2.0))
        assert np.allclose(eval_F(nl, space, u), 4.0)

    def test_separable_product_pointwise(self):
        # f = sin(2 pi x) * u at x=0.25 with u(x)=x: sin(pi/2) * 0.25
        space = space_1d(8)
        nl = Nonlinearity(1, 1, [], p0=4.0)
        nl.term(0, 0, ExpressionFactor("sin(2*pi*x)", 1),
                Polynomial([(1.0, (1,))], 1))
        u = self._u_field(space, lambda x: x.copy())
        # use an explicit sample, not a mesh quadrature point
        vals = nl.flux_values(np.array([[0.25]]), np.array([[0.25]]))
        assert np.isclose(vals[0, 0, 0], 0.25)

    def test_jacobian_zero_for_u_independent(self):
        space = space_1d(4)
        nl = Nonlinearity(1, 1, [], p0=4.0)
        nl.term(0, 0, ExpressionFactor("x", 1), Constant(1.0, 1))
        u = self._u_field(space, np.ones_like)
        assert np.allclose(eval_F_jacobian(nl, space, u), 0.0)

    def test_jacobian_cubic(self):
        space = space_1d(4)
        nl = Nonlinearity(1, 1, [], p0=4.0)
        nl.term(0, 0, ExpressionFactor("1", 1), Polynomial([(1.0, (3,))], 1))
        u = self._u_field(space, lambda x: np.full_like(x, 2.0))
        assert np.allclose(eval_F_jacobian(nl, space, u), 12.0)

    def test_locality_under_permutation(self):
        # the flux at a sample depends only on the value at that sample
        nl = Nonlinearity(1, 1, [], p0=4.0)
        nl.term(0, 0, ExpressionFactor("1", 1), Polynomial([(1.0, (2,))], 1))
        rng = np.random.default_rng(2)
        pts = rng.uniform(size=(20, 1))
        u = rng.uniform(size=(20, 1))
        vals = nl.flux_values(pts, u)
        perm = rng.permutation(20)
        k = int(perm[0])
        u_perm = u.copy()
        u_perm[perm[1:]] = rng.uniform(size=(19, 1))
        vals_perm = nl.flux_values(pts, u_perm)
        assert np.isclose(vals[k, 0, 0], vals_perm[k, 0, 0])

    def test_pole_error_names_point(self):
        space = space_1d(4)
        nl = Nonlinearity(1, 1, [], p0=4.0)
        # pole at u = -5, reached by the constant field
        pole = Rational(Polynomial([(1.0, (0,))], 1),
                        Polynomial([(1.0, (1,)), (5.0, (0,))], 1))
        nl.term(0, 0, ExpressionFactor("1", 1), pole)
        u = DiscreteField(space, np.full(space.num_dofs, -5.0))
        with pytest.raises(ValueError, match="quadrature point"):
            eval_F(nl, space, u)

    def test_parsed_rational_pole_reached_by_field(self):
        # 1/(1 - 2u) parses; a field sitting on its pole u = 1/2 is refused
        # when the flux or its derivative is evaluated
        nl = parse_config(_RATIONAL_CONFIG.format(c=-2.0)).flux
        space = space_1d(4)
        u = DiscreteField(space, np.full(space.num_dofs, 0.5))
        with pytest.raises(ValueError, match="denominator vanishes"):
            eval_F(nl, space, u)
        with pytest.raises(ValueError, match="derivative undefined"):
            eval_F_jacobian(nl, space, u)

    def test_gateaux_remainder_shrinks(self):
        # |F(u+tv) - F(u) - t J(u) v| / t -> 0 with decreasing ratios
        space = space_1d(32)
        nl = Nonlinearity(1, 1, [], p0=4.0)
        nl.term(0, 0, ExpressionFactor("1 + 0.5*sin(2*pi*x)", 1),
                Polynomial([(1.0, (3,)), (0.5, (2,))], 1))
        rng = np.random.default_rng(4)
        u = DiscreteField(space, rng.uniform(-1, 1, space.num_dofs))
        v = DiscreteField(space, rng.uniform(-1, 1, space.num_dofs))
        nc, nq = space.quad_points.shape[:2]
        pts = space.quad_points.reshape(-1, 1)
        uq = space.values_at_quadrature(u.values).reshape(-1, 1)
        vq = space.values_at_quadrature(v.values).reshape(-1, 1)
        jac_v = np.einsum("maib,mb->mai", nl.flux_jacobian(pts, uq), vq)
        ratios = []
        for t in (1e-2, 1e-3, 1e-4):
            lhs = nl.flux_values(pts, uq + t * vq) - nl.flux_values(pts, uq)
            rem = np.abs(lhs - t * jac_v).max() / t
            ratios.append(rem)
        assert ratios[2] < ratios[1] < ratios[0]


class TestValidate:
    def _nl_with_g(self, expr, p0):
        nl = Nonlinearity(1, 1, [], p0=p0)
        nl.term(0, 0, ExpressionFactor(expr, 1), Constant(1.0, 1))
        return nl

    def test_smooth_factor_passes(self):
        nl = Nonlinearity(1, 2, [], p0=4.0)
        nl.term(0, 0, ExpressionFactor("sin(2*pi*x1)", 2), Constant(1.0, 1))
        assert validate(nl).passed

    def test_exponent_must_exceed_dimension(self):
        report = validate(self._nl_with_g("1", 1.0))
        assert not report.passed
        assert "p0 must exceed N" in report.reason

    def test_exponent_checked_against_flux_dimension(self):
        # p0 = 1.5 exceeds N = 1 but not N = 2
        for dim, passed in ((1, True), (2, False)):
            nl = Nonlinearity(1, dim, [], p0=1.5)
            nl.term(0, 0, ExpressionFactor("1", dim), Constant(1.0, 1))
            report = validate(nl)
            assert report.dim == dim
            assert report.passed is passed

    def test_integrable_singularity_passes(self):
        # int |x-1/2|^(-3/4) = 8 * 2^(-1/4), finite
        report = validate(self._nl_with_g("abs(x - 0.5)**(-0.25)", 3.0))
        term = report.terms[0]
        assert report.passed
        analytic = 8.0 * 2.0 ** (-0.25)
        assert abs(term.integral_estimate - analytic) <= 0.15 * analytic

    def test_divergent_factor_fails(self):
        report = validate(self._nl_with_g("abs(x - 0.5)**(-0.5)", 3.0))
        assert not report.passed

    def test_table_factor(self):
        nl = Nonlinearity(1, 1, [], p0=4.0)
        nl.term(0, 0, TableFactor((2,), [1.0, 3.0], 1), Constant(1.0, 1))
        report = validate(nl)
        assert report.passed
        # mean of |g|^4 over the two halves
        assert np.isclose(report.terms[0].integral_estimate,
                          0.5 * (1.0 + 81.0))
