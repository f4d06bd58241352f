"""``u0`` and ``u_eps`` of ``two_phase_1d`` against a reference that shares
no code with homfem.

In 1D the equation ``(a(x/eps) u' + f(x, u))' = 0`` integrates once to
``a(x/eps) u' + f(x, u) = c``.  The reference shoots on ``c``: it integrates
``u' = (c - f(x, u)) / a(x/eps)`` from ``u(0) = 0`` by fixed-step RK4, with
steps that land on every jump of ``a``, and solves ``u(1; c) = 0`` by the
secant method.  The homogenized problem is the same with the harmonic mean
of ``a`` in its place.  P1 nodal values converge at O(h^2) to it.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from homfem.cli import compute_effective_tensor, parse_config, run_single

CONFIG = Path(__file__).parents[1] / "configs" / "two_phase_1d.yaml"
STEPS = 8192  # RK4 steps on [0, 1]; a multiple of every jump count below


def _flux(x, u):
    """``f(x, u)`` of configs/two_phase_1d.yaml."""
    return 0.5 * math.sin(2 * math.pi * x) + 0.25 * u * u


def _shoot(coefficient, c):
    """``u`` at the RK4 grid points for the constant ``c``."""
    h = 1.0 / STEPS
    u, values = 0.0, [0.0]
    for k in range(STEPS):
        x = k * h
        a = coefficient(x + 0.5 * h)  # constant on the step

        def slope(x, u):
            return (c - _flux(x, u)) / a

        k1 = slope(x, u)
        k2 = slope(x + 0.5 * h, u + 0.5 * h * k1)
        k3 = slope(x + 0.5 * h, u + 0.5 * h * k2)
        k4 = slope(x + h, u + h * k3)
        u += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        values.append(u)
    return np.array(values)


def _reference(coefficient):
    """The solution with ``u(1) = 0``, by the secant method on ``c``."""
    c0, c1 = 0.0, 0.1
    r0, u = _shoot(coefficient, c0)[-1], _shoot(coefficient, c1)
    while abs(u[-1]) > 1e-13:  # round-off leaves about 1e-16
        c0, c1, r0 = c1, c1 - u[-1] * (c1 - c0) / (u[-1] - r0), u[-1]
        u = _shoot(coefficient, c1)
    return u


def _two_phase(eps):
    """1 on the first half of each period, 4 on the second."""
    return lambda x: 1.0 if (x / eps) % 1.0 < 0.5 else 4.0


@pytest.fixture(scope="module")
def nodal_errors():
    """Max nodal errors of ``u0`` and ``u_eps`` at eps = 1/8 and 1/16,
    with the spacing of each row."""
    cfg = parse_config(CONFIG.read_text())
    ahat, _ = compute_effective_tensor(cfg)
    harmonic = 1.0 / (0.5 / 1.0 + 0.5 / 4.0)
    errors = []
    for eps in (1 / 8, 1 / 16):
        result = run_single(cfg, ahat, eps)
        assert result.row["status"] == "converged"
        x = result.space.mesh.vertices[:, 0]
        nodes = np.rint(x * STEPS).astype(int)
        assert np.allclose(nodes, x * STEPS, rtol=0, atol=1e-9)
        u0 = _reference(lambda x: harmonic)[nodes]
        ueps = _reference(_two_phase(eps))[nodes]
        errors.append((result.space.mesh.spacing,
                       np.max(np.abs(result.fields["u0"].values - u0)),
                       np.max(np.abs(result.fields["ueps"].values - ueps))))
    return errors


def test_nodal_errors_within_the_h2_law(nodal_errors):
    # measured 0.164 h^2 for both fields
    for h, err_u0, err_ueps in nodal_errors:
        assert err_u0 <= 0.2 * h * h
        assert err_ueps <= 0.2 * h * h


def test_errors_fall_fourfold_per_halving(nodal_errors):
    (_, u0_a, ueps_a), (_, u0_b, ueps_b) = nodal_errors
    assert 3.9 <= u0_a / u0_b <= 4.1
    assert 3.9 <= ueps_a / ueps_b <= 4.1
