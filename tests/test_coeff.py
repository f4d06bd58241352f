import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfem.coeff import (DEFAULT_SAMPLE_GRID, HomogenizedTensor,
                          PiecewiseTensor, TensorField,
                          _quadratic_form_margin, add_defect, sample_grid)

from conftest import (constant_field, expression_field, piecewise_14_tensor,
                      piecewise_field)


def _grid_margin(t, per_axis):
    """The pointwise quadratic-form margin, minimized over a sample grid."""
    return float(_quadratic_form_margin(
        t.evaluate(sample_grid(t.dim, per_axis))).min())


class TestLegendreMargin:
    def test_identity(self):
        t = constant_field(1, 2, 1.0)
        assert np.isclose(t.observed_margin(), 1.0)

    def test_scalar_diagonal(self):
        t = constant_field(1, 2, np.diag([2.0, 0.5]))
        assert np.isclose(t.observed_margin(), 0.5)

    def test_triangular_can_fail_legendre(self):
        # symmetrized part [[1,5],[5,1]] has eigenvalues 6 and -4
        t = constant_field(2, 1, np.array([[1.0, 10.0], [0.0, 1.0]]))
        assert t.triangular
        assert np.isclose(t.observed_margin(), -4.0)

    def test_require_elliptic_raises_on_nonpositive(self):
        t = constant_field(2, 1, np.array([[1.0, 10.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="ellipticity"):
            t.require_elliptic()

    def test_observed_margin_is_default_grid_margin(self):
        # a coarse grid misses the minimum of 1 + 0.999 sin(2 pi x); the
        # cached value is the default-grid one, before and after other calls
        t = expression_field(1, 1, "1 + 0.999*sin(2*pi*x)")
        coarse = _grid_margin(t, 2)
        first = t.observed_margin()
        assert first == _grid_margin(t, DEFAULT_SAMPLE_GRID)
        assert first != coarse
        assert t.observed_margin() == first
        assert t.require_elliptic() == first

    def test_blocks_move_no_bit_of_the_margin(self):
        # three blocks, the last one partial, against the whole sample at once
        values = np.random.default_rng(4).standard_normal((10_001, 2, 2, 2, 2))
        q = np.transpose(values, (0, 1, 3, 2, 4)).reshape(-1, 4, 4)
        whole = np.linalg.eigvalsh(0.5 * (q + np.transpose(q, (0, 2, 1))))
        assert np.array_equal(_quadratic_form_margin(values), whole[:, 0])

    def test_require_elliptic_evaluates_the_grid_once(self, monkeypatch):
        t = expression_field(1, 2, "2 + 0.9*sin(2*pi*x1)")
        evaluate, calls = TensorField.evaluate, []

        def counted(self, points):
            calls.append(len(points))
            return evaluate(self, points)

        monkeypatch.setattr(TensorField, "evaluate", counted)
        t.require_elliptic()
        t.observed_margin()
        assert calls == [DEFAULT_SAMPLE_GRID ** 2]

    def test_rescaled_member_has_its_own_margin(self):
        t = expression_field(1, 1, "1 + 0.999*sin(2*pi*x)")
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
        base = expression_field(1, 1, "2 + sin(2*pi*x)")
        eps = 0.125
        scaled = base.with_epsilon(eps)
        pts = np.linspace(0.01, 0.8, 23).reshape(-1, 1)
        assert np.allclose(scaled.evaluate(pts), scaled.evaluate(pts + eps))

    def test_constant_base_stays_constant(self):
        base = constant_field(1, 2, 3.0)
        scaled = base.with_epsilon(0.1)
        pts = sample_grid(2, 5)
        assert np.allclose(scaled.evaluate(pts), 3.0 * np.eye(2))

    @settings(max_examples=25, deadline=None)
    @given(eps=st.floats(0.01, 1.0), shift=st.floats(-1.0, 1.0))
    def test_commutes_with_sampling(self, eps, shift):
        base = expression_field(1, 1, f"2 + cos(2*pi*x + {shift})")
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
        return piecewise_field(1, 1, (4,), [0.0, 0.5, 0.0, 0.0])

    def test_zero_defect_keeps_base_values(self):
        base = piecewise_14_tensor()
        zero = piecewise_field(1, 1, (2,), [0.0, 0.0])
        combined = add_defect(base, zero, 0.125)
        pts = sample_grid(1, 13)
        assert np.allclose(combined.evaluate(pts),
                           base.with_epsilon(0.125).evaluate(pts))

    def test_point_outside_scaled_support_sees_base(self):
        base = constant_field(1, 1, 2.0)
        eps = 0.1
        combined = add_defect(base, self._bump(), eps)
        # x/eps = 8.0 is outside the unit-cell support of the bump
        assert np.allclose(combined.evaluate(np.array([[0.8]])), 2.0)

    def test_table_defect_is_zero_outside_the_cell(self):
        # the bump's edge cell is not zero, so clipping y = 8 into the cell,
        # as the base's lookup does, would add 0.5
        edge = piecewise_field(1, 1, [2], [0.0, 0.5])
        combined = add_defect(constant_field(1, 1, 2.0), edge, 0.1)
        assert combined.evaluate(np.array([[0.8]]))[0, 0, 0, 0, 0] == 2.0

    def test_sum_inside_support(self):
        base = constant_field(1, 1, 2.0)
        eps = 0.5
        combined = add_defect(base, self._bump(), eps)
        # x = 0.15 -> y = 0.3, second quarter of the cell: defect 0.5
        assert np.allclose(combined.evaluate(np.array([[0.15]])), 2.5)

    def test_constant_defect_fails_localization(self):
        base = constant_field(1, 1, 2.0)
        const = constant_field(1, 1, 0.5)
        with pytest.raises(ValueError, match="localization"):
            add_defect(base, const, 0.1)

    def test_margin_loss_rejected(self):
        base = constant_field(1, 1, 1.0)
        hole = piecewise_field(1, 1, (4,), [0.0, -1.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="ellipticity|margin"):
            add_defect(base, hole, 0.25)


class TestTensorField:
    def test_autodetect_triangular(self):
        t = constant_field(2, 1, np.array([[1.0, 0.3], [0.0, 1.0]]))
        assert t.triangular
        t2 = constant_field(2, 1, np.array([[1.0, 0.3], [0.2, 1.0]]))
        assert not t2.triangular

    def test_triangular_sampled_on_first_access_only(self, monkeypatch):
        # building and rescaling a field evaluates nothing; the first read
        # samples the field once, and the value is kept
        evaluate, calls = TensorField.evaluate, []

        def counted(self, points):
            calls.append(len(points))
            return evaluate(self, points)

        monkeypatch.setattr(TensorField, "evaluate", counted)
        t = constant_field(2, 2, np.ones((2, 2, 2, 2))).with_epsilon(0.5)
        assert calls == []
        assert not t.triangular and not t.triangular
        assert calls == [16 ** 2]

    def test_piecewise_lookup(self):
        t = piecewise_14_tensor()
        vals = t.evaluate(np.array([[0.25], [0.75]]))
        assert np.allclose(vals.ravel(), [1.0, 4.0])

    def test_base_table_clips_a_point_wrapped_to_one(self):
        # np.mod(-1e-20, 1.0) is 1.0, off the table; the base reads its
        # last cell there, where a defect's table would read zero
        assert np.mod(-1e-20, 1.0) == 1.0
        vals = piecewise_14_tensor().evaluate(np.array([[-1e-20]]))
        assert vals.ravel().tolist() == [4.0]

    def test_bad_entry_shape_rejected(self):
        with pytest.raises(ValueError, match="cannot interpret"):
            constant_field(2, 2, np.ones((3, 3)))

    def test_table_grid_checked_against_the_dimension(self):
        # a config's message, without the section that cli puts before it
        spec = PiecewiseTensor(kind="piecewise", grid=[2, 2],
                               values=[1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError) as info:
            TensorField(1, 1, spec)
        assert str(info.value) == (
            "grid must have 1 entries, each at least 1 (the domain's "
            "dimension is 1), got [2, 2]")

    def test_validated_bounds_hold_on_later_evaluations(self):
        from homfem.coeff import _quadratic_form_margin
        t = expression_field(1, 2, "2 + 0.9*sin(2*pi*x1)")
        margin = t.require_elliptic()
        rng = np.random.default_rng(9)
        vals = t.evaluate(rng.uniform(size=(500, 2)))
        # the bound is sampled, not certified: allow 1% sampling slack
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

    def test_evaluate_is_the_constant_field(self):
        # assembled directly, it must give the bytes of the constant field
        values = np.array([[1.6, 0.1], [0.2, 2.5]]).reshape(1, 1, 2, 2)
        pts = np.array([[0.3, 0.7], [0.9, 0.1], [0.5, 0.5]])
        got = HomogenizedTensor(values).evaluate(pts)
        assert got.flags.c_contiguous and got.flags.writeable
        assert np.array_equal(
            got, constant_field(1, 2, values).evaluate(pts))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            HomogenizedTensor(np.full((1, 1, 1, 1), bad))
