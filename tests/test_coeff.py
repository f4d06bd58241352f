import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfem.coeff import (DEFAULT_SAMPLE_GRID, HomogenizedTensor,
                          TensorField, _quadratic_form_margin, add_defect,
                          sample_grid)

from conftest import piecewise_14_tensor


def _grid_margin(t, per_axis):
    """The pointwise quadratic-form margin, minimized over a sample grid."""
    return float(_quadratic_form_margin(
        t.evaluate(sample_grid(t.dim, per_axis))).min())


class TestLegendreMargin:
    def test_identity(self):
        t = TensorField.constant(1, 2, 1.0)
        assert np.isclose(t.observed_margin(), 1.0)

    def test_scalar_diagonal(self):
        t = TensorField.constant(1, 2, np.diag([2.0, 0.5]))
        assert np.isclose(t.observed_margin(), 0.5)

    def test_triangular_can_fail_legendre(self):
        # symmetrized part [[1,5],[5,1]] has eigenvalues 6 and -4
        t = TensorField.constant(2, 1, np.array([[1.0, 10.0], [0.0, 1.0]]),
                                 triangular=True)
        assert np.isclose(t.observed_margin(), -4.0)

    def test_require_elliptic_raises_on_nonpositive(self):
        t = TensorField.constant(2, 1, np.array([[1.0, 10.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="ellipticity"):
            t.require_elliptic()

    def test_observed_margin_is_default_grid_margin(self):
        # a coarse grid misses the minimum of 1 + 0.999 sin(2 pi x); the
        # cached value is the default-grid one, before and after other calls
        t = TensorField.from_expressions(1, 1, "1 + 0.999*sin(2*pi*x)")
        coarse = _grid_margin(t, 2)
        first = t.observed_margin()
        assert first == _grid_margin(t, DEFAULT_SAMPLE_GRID)
        assert first != coarse
        assert t.observed_margin() == first
        assert t.require_elliptic() == first

    def test_require_elliptic_evaluates_the_grid_once(self, monkeypatch):
        t = TensorField.from_expressions(1, 2, "2 + 0.9*sin(2*pi*x1)")
        evaluate, calls = TensorField.evaluate, []

        def counted(self, points):
            calls.append(len(points))
            return evaluate(self, points)

        monkeypatch.setattr(TensorField, "evaluate", counted)
        t.require_elliptic()
        t.observed_magnitude()
        assert calls == [DEFAULT_SAMPLE_GRID ** 2]

    def test_rescaled_member_has_its_own_margin(self):
        t = TensorField.from_expressions(1, 1, "1 + 0.999*sin(2*pi*x)")
        t.observed_margin()
        s = t.with_epsilon(0.3)
        assert s.observed_margin() == _grid_margin(s, DEFAULT_SAMPLE_GRID)
        assert s.observed_margin() != t.observed_margin()


class TestScalePeriodic:
    """``with_epsilon`` rescales a unit-cell tensor to period epsilon."""

    def test_epsilon_one_matches_base(self):
        base = piecewise_14_tensor()
        scaled = base.with_epsilon(1.0)
        pts = sample_grid(1, 17)
        assert np.allclose(scaled.evaluate(pts), base.evaluate(pts))

    def test_result_is_eps_periodic(self):
        base = TensorField.from_expressions(1, 1, "2 + sin(2*pi*x)")
        eps = 0.125
        scaled = base.with_epsilon(eps)
        pts = np.linspace(0.01, 0.8, 23).reshape(-1, 1)
        assert np.allclose(scaled.evaluate(pts), scaled.evaluate(pts + eps))

    def test_constant_base_stays_constant(self):
        base = TensorField.constant(1, 2, 3.0)
        scaled = base.with_epsilon(0.1)
        pts = sample_grid(2, 5)
        assert np.allclose(scaled.evaluate(pts), 3.0 * np.eye(2))

    @settings(max_examples=25, deadline=None)
    @given(eps=st.floats(0.01, 1.0), shift=st.floats(-1.0, 1.0))
    def test_commutes_with_sampling(self, eps, shift):
        base = TensorField.from_expressions(1, 1, f"2 + cos(2*pi*x + {shift})")
        pts = sample_grid(1, 11)
        direct = base.with_epsilon(eps).evaluate(pts)
        mapped = base.evaluate(np.mod(pts / eps, 1.0))
        assert np.allclose(direct, mapped)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            piecewise_14_tensor().with_epsilon(0.0)


class TestAddDefect:
    def _bump(self):
        # compactly supported table bump on the unit cell
        return TensorField.piecewise(1, 1, (4,), [0.0, 0.5, 0.0, 0.0],
                                     zero_outside=True)

    def test_zero_defect_keeps_base_values(self):
        base = piecewise_14_tensor()
        zero = TensorField.piecewise(1, 1, (2,), [0.0, 0.0], zero_outside=True)
        combined = add_defect(base, zero, 0.125)
        pts = sample_grid(1, 13)
        assert np.allclose(combined.evaluate(pts),
                           base.with_epsilon(0.125).evaluate(pts))

    def test_point_outside_scaled_support_sees_base(self):
        base = TensorField.constant(1, 1, 2.0)
        eps = 0.1
        combined = add_defect(base, self._bump(), eps)
        # x/eps = 8.0 is outside the unit-cell support of the bump
        assert np.allclose(combined.evaluate(np.array([[0.8]])), 2.0)

    def test_sum_inside_support(self):
        base = TensorField.constant(1, 1, 2.0)
        eps = 0.5
        combined = add_defect(base, self._bump(), eps)
        # x = 0.15 -> y = 0.3, second quarter of the cell: defect 0.5
        assert np.allclose(combined.evaluate(np.array([[0.15]])), 2.5)

    def test_constant_defect_fails_localization(self):
        base = TensorField.constant(1, 1, 2.0)
        const = TensorField.constant(1, 1, 0.5)
        with pytest.raises(ValueError, match="localization"):
            add_defect(base, const, 0.1)

    def test_margin_loss_rejected(self):
        base = TensorField.constant(1, 1, 1.0)
        hole = TensorField.piecewise(1, 1, (4,), [0.0, -1.5, 0.0, 0.0],
                                     zero_outside=True)
        with pytest.raises(ValueError, match="ellipticity|margin"):
            add_defect(base, hole, 0.25)


class TestTensorField:
    def test_declared_triangular_verified(self):
        with pytest.raises(ValueError, match="triangular"):
            TensorField.constant(2, 1, np.array([[1.0, 0.0], [0.5, 1.0]]),
                                 triangular=True)

    def test_autodetect_triangular(self):
        t = TensorField.constant(2, 1, np.array([[1.0, 0.3], [0.0, 1.0]]))
        assert t.triangular
        t2 = TensorField.constant(2, 1, np.array([[1.0, 0.3], [0.2, 1.0]]))
        assert not t2.triangular

    def test_piecewise_lookup(self):
        t = piecewise_14_tensor()
        vals = t.evaluate(np.array([[0.25], [0.75]]))
        assert np.allclose(vals.ravel(), [1.0, 4.0])

    def test_magnitude_observed(self):
        t = piecewise_14_tensor()
        assert np.isclose(t.observed_magnitude(), 4.0)

    def test_magnitude_is_default_grid_sup(self):
        t = TensorField.from_expressions(1, 1, "1 + 0.999*sin(2*pi*x)")
        grid_sup = np.abs(t.evaluate(sample_grid(1, DEFAULT_SAMPLE_GRID))).max()
        assert t.observed_magnitude() == grid_sup
        assert t.observed_magnitude() == grid_sup

    def test_bad_entry_shape_rejected(self):
        with pytest.raises(ValueError, match="cannot interpret"):
            TensorField.constant(2, 2, np.ones((3, 3)))

    def test_validated_bounds_hold_on_later_evaluations(self):
        from homfem.coeff import _quadratic_form_margin
        t = TensorField.from_expressions(1, 2, "2 + 0.9*sin(2*pi*x1)")
        margin = t.require_elliptic()
        mag = t.observed_magnitude()
        rng = np.random.default_rng(9)
        vals = t.evaluate(rng.uniform(size=(500, 2)))
        # the bounds are sampled, not certified: allow 1% sampling slack
        assert np.abs(vals).max() <= 1.01 * mag
        assert _quadratic_form_margin(vals).min() >= 0.99 * margin


class TestHomogenizedTensor:
    def test_margin_positive_enforced(self):
        with pytest.raises(ValueError, match="ellipticity"):
            HomogenizedTensor(np.array([[1.0, 10.0], [0.0, 1.0]]
                                       ).reshape(2, 2, 1, 1))

    def test_json_roundtrip(self):
        t = HomogenizedTensor(np.diag([1.6, 2.5]).reshape(1, 1, 2, 2))
        doc = json.loads(t.to_json())
        assert np.allclose(doc["values"], t.values)
        assert doc["n"] == 1 and doc["N"] == 2

    def test_matrix_for_1d(self):
        t = HomogenizedTensor(np.array(1.6).reshape(1, 1, 1, 1))
        assert np.isclose(t.matrix()[0, 0], 1.6)

    def test_as_tensor_field(self):
        t = HomogenizedTensor(np.diag([1.6, 2.5]).reshape(1, 1, 2, 2))
        field = t.as_tensor_field()
        assert np.allclose(field.evaluate(np.array([[0.3, 0.7]]))[0, 0, 0],
                           np.diag([1.6, 2.5]))
