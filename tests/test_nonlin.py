import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfem.cli import parse_config
from homfem.fem import DiscreteField
from homfem.nonlin import (Constant, LinearForm, Monomial, Polynomial,
                           Rational, TableFactor, Term, eval_F,
                           eval_F_jacobian, validate)

from conftest import bound_flux, space_1d

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


def _catalog_members():
    return [
        Polynomial([Monomial(1.0, [3, 0]), Monomial(-0.5, [1, 1])]),
        LinearForm("sin", [1.0, -2.0], 0.3),
        LinearForm("cos", [0.7, 0.2], 0.0),
        LinearForm("exp", [0.5, -0.5], 0.1),
        Rational([Monomial(1.0, [1, 0])], [Monomial(1.0, [0, 0]),
                                           Monomial(1.0, [2, 0]),
                                           Monomial(1.0, [0, 2])]),
    ]


class TestCatalog:
    def test_polynomial_values(self):
        h = Polynomial([Monomial(1.0, [2])])
        assert np.allclose(h(np.array([[2.0]])), [4.0])

    def test_cubic_derivative_at_two(self):
        h = Polynomial([Monomial(1.0, [3])])
        assert np.allclose(h.gradient(np.array([[2.0]])), [[12.0]])

    def test_rational_pole_detected(self):
        # pole at u = -5: the denominator check raises there
        den = [Monomial(1.0, [1]), Monomial(5.0, [0])]
        num = [Monomial(1.0, [0])]
        with pytest.raises(ValueError, match="denominator"):
            Rational(num, den)(np.array([[-5.0]]))

    @pytest.mark.parametrize("h", _catalog_members(), ids=lambda h: h.kind)
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
            Polynomial([Monomial(1.0, [2])]), u)
        assert not _gradient_matches_central_differences(
            Broken([Monomial(1.0, [2])]), u)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(-3, 3),
                              st.tuples(st.integers(0, 4), st.integers(0, 4))),
                    min_size=1, max_size=4))
    def test_polynomial_gradient_property(self, monomials):
        h = Polynomial([Monomial(c, list(p)) for c, p in monomials])
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
        h = cfg.nonlinearity.terms[0].h
        u = np.linspace(-1.0, 1.0, 401)
        u = u[np.abs(u + 1.0 / c) >= 0.25].reshape(-1, 1)
        assert np.allclose(h(u), 1.0 / (1.0 + c * u[:, 0]), rtol=1e-14)
        assert _gradient_matches_central_differences(h, u)


@pytest.mark.parametrize("alpha, i", [(1, 0), (0, 1), (-1, 0)])
def test_term_target_outside_the_index_range_rejected(alpha, i):
    # bind checks the target, counted from 1, against n and N; the flux
    # names the term by its key
    target = [alpha + 1, i + 1]
    message = (f"target must be an integer pair in [1, 1] x [1, 1], got "
               f"{target!r}")
    with pytest.raises(ValueError) as info:
        Term(target=target, g="1").bind(1, 1)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        bound_flux(1, 1, ([1, 1], "1", Constant()), (target, "1", Constant()))
    assert str(info.value) == "terms[1]." + message


def test_bind_stores_the_entry_and_the_compiled_g():
    term = Term(target=[2, 1], g=0.5)
    term.bind(2, 1)
    assert (term.alpha, term.i, term.spatial_factor.source) == (1, 0, "0.5")
    table = Term(target=[1, 1], g=TableFactor([2], [1.0, 3.0]))
    table.bind(1, 1)
    assert table.spatial_factor is table.g
    with pytest.raises(ValueError) as info:
        Term(target=[1, 1], g="x2").bind(1, 1)
    assert str(info.value) == "g: variable 'x2' exceeds space dimension 1"


class TestEvalF:
    def _u_field(self, space, fn):
        x = space.mesh.vertices.ravel()
        return DiscreteField(space, fn(x))

    def test_u_independent_flux(self):
        space = space_1d(8)
        nl = bound_flux(1, 1, ([1, 1], "x", Constant(1.0)))
        for fn in (np.zeros_like, np.ones_like):
            u = self._u_field(space, fn)
            vals = eval_F(nl, space, u)
            assert np.allclose(vals[:, :, 0, 0], space.quad_points[:, :, 0])

    def test_square_of_constant_field(self):
        space = space_1d(4)
        nl = bound_flux(1, 1,
                        ([1, 1], "1", Polynomial([Monomial(1.0, [2])])))
        u = self._u_field(space, lambda x: np.full_like(x, 2.0))
        assert np.allclose(eval_F(nl, space, u), 4.0)

    def test_separable_product_pointwise(self):
        # f = sin(2 pi x) * u at x=0.25 with u(x)=x: sin(pi/2) * 0.25
        space = space_1d(8)
        nl = bound_flux(1, 1, ([1, 1], "sin(2*pi*x)",
                               Polynomial([Monomial(1.0, [1])])))
        u = self._u_field(space, lambda x: x.copy())
        # use an explicit sample, not a mesh quadrature point
        vals = nl.flux_values([t.spatial_factor(np.array([[0.25]]))
                               for t in nl.terms],
                               np.array([[0.25]]))
        assert np.isclose(vals[0, 0, 0], 0.25)

    def test_jacobian_zero_for_u_independent(self):
        space = space_1d(4)
        nl = bound_flux(1, 1, ([1, 1], "x", Constant(1.0)))
        u = self._u_field(space, np.ones_like)
        assert np.allclose(eval_F_jacobian(nl, space, u), 0.0)

    def test_jacobian_cubic(self):
        space = space_1d(4)
        nl = bound_flux(1, 1,
                        ([1, 1], "1", Polynomial([Monomial(1.0, [3])])))
        u = self._u_field(space, lambda x: np.full_like(x, 2.0))
        assert np.allclose(eval_F_jacobian(nl, space, u), 12.0)

    def test_locality_under_permutation(self):
        # the flux at a sample depends only on the value at that sample
        nl = bound_flux(1, 1,
                        ([1, 1], "1", Polynomial([Monomial(1.0, [2])])))
        rng = np.random.default_rng(2)
        pts = rng.uniform(size=(20, 1))
        u = rng.uniform(size=(20, 1))
        spatial = [t.spatial_factor(pts) for t in nl.terms]
        vals = nl.flux_values(spatial, u)
        perm = rng.permutation(20)
        k = int(perm[0])
        u_perm = u.copy()
        u_perm[perm[1:]] = rng.uniform(size=(19, 1))
        vals_perm = nl.flux_values(spatial, u_perm)
        assert np.isclose(vals[k, 0, 0], vals_perm[k, 0, 0])

    def test_pole_error_names_point(self):
        space = space_1d(4)
        # pole at u = -5, reached by the constant field
        pole = Rational([Monomial(1.0, [0])],
                        [Monomial(1.0, [1]), Monomial(5.0, [0])])
        nl = bound_flux(1, 1, ([1, 1], "1", pole))
        u = DiscreteField(space, np.full(space.num_dofs, -5.0))
        with pytest.raises(ValueError, match="quadrature point"):
            eval_F(nl, space, u)

    def test_parsed_rational_pole_reached_by_field(self):
        # 1/(1 - 2u) parses; a field sitting on its pole u = 1/2 is refused
        # when the flux or its derivative is evaluated
        nl = parse_config(_RATIONAL_CONFIG.format(c=-2.0)).nonlinearity
        space = space_1d(4)
        u = DiscreteField(space, np.full(space.num_dofs, 0.5))
        with pytest.raises(ValueError, match="denominator vanishes"):
            eval_F(nl, space, u)
        with pytest.raises(ValueError, match="derivative undefined"):
            eval_F_jacobian(nl, space, u)

    def test_gateaux_remainder_shrinks(self):
        # |F(u+tv) - F(u) - t J(u) v| / t -> 0 with decreasing ratios
        space = space_1d(32)
        nl = bound_flux(1, 1, ([1, 1], "1 + 0.5*sin(2*pi*x)", Polynomial(
            [Monomial(1.0, [3]), Monomial(0.5, [2])])))
        rng = np.random.default_rng(4)
        u = DiscreteField(space, rng.uniform(-1, 1, space.num_dofs))
        v = DiscreteField(space, rng.uniform(-1, 1, space.num_dofs))
        nc, nq = space.quad_points.shape[:2]
        spatial = [space.quadrature_values(t.spatial_factor)
                   for t in nl.terms]
        uq = space.values_at_quadrature(u.values).reshape(-1, 1)
        vq = space.values_at_quadrature(v.values).reshape(-1, 1)
        jac_v = np.einsum("maib,mb->mai", nl.flux_jacobian(spatial, uq), vq)
        ratios = []
        for t in (1e-2, 1e-3, 1e-4):
            lhs = (nl.flux_values(spatial, uq + t * vq)
                   - nl.flux_values(spatial, uq))
            rem = np.abs(lhs - t * jac_v).max() / t
            ratios.append(rem)
        assert ratios[2] < ratios[1] < ratios[0]


class TestValidate:
    def _nl_with_g(self, expr, p0):
        nl = bound_flux(1, 1, ([1, 1], expr, Constant(1.0)), p0=p0)
        return nl

    def test_smooth_factor_passes(self):
        nl = bound_flux(1, 2, ([1, 1], "sin(2*pi*x1)", Constant(1.0)))
        assert validate(nl).passed

    def test_exponent_must_exceed_dimension(self):
        report = validate(self._nl_with_g("1", 1.0))
        assert not report.passed
        assert "p0 must exceed N" in report.reason

    def test_exponent_checked_against_flux_dimension(self):
        # p0 = 1.5 exceeds N = 1 but not N = 2
        for dim, passed in ((1, True), (2, False)):
            nl = bound_flux(1, dim, ([1, 1], "1", Constant(1.0)), p0=1.5)
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
        nl = bound_flux(1, 1, ([1, 1], TableFactor([2], [1.0, 3.0]),
                               Constant(1.0)))
        report = validate(nl)
        assert report.passed
        # mean of |g|^4 over the two halves
        assert np.isclose(report.terms[0].integral_estimate,
                          0.5 * (1.0 + 81.0))
