"""The constructive solve pipeline.

Four stages: a Newton solve of the effective (non-oscillatory) semilinear
problem for u0, a smallest-singular-value estimate certifying that u0 is
non-degenerate, the one-linear-solve approximate solution
``ubar = -A_eps^{-1} D F(u0)``, and the frozen-operator fixed-point
iteration

    (A_eps + C(u0)) u_{l+1} = C(u0) u_l - D F(u_l),    u_1 = ubar,

where C(u0) couples trial values against test gradients through the flux
derivative at u0.  Each step is algebraically the linearized update with
the derivative taken at u0 rather than at the current iterate.  Starting at
ubar matters: the first correction from u0 does not shrink with the
oscillation period, while the one from ubar does.

Every stage takes its diffusion operator already assembled, as a
:class:`~homfem.fem.SparseOperator` whose ``.space`` is the solve space.  A
sweep row assembles each once: ``Ahat`` for the Newton solve and the
margin, and ``A_eps`` for ``ubar`` and the frozen operator, in
:func:`oscillatory_operator`, the one place a tensor becomes ``A_eps`` and
which checks the oscillation resolution.  :class:`FrozenOperator` holds
``A_eps + C(u0)`` over its one factorization; the fixed-point solve and
every perturbed restart of the uniqueness probe iterate over that one value.

Newton's iteration and the fixed point run through one loop,
:func:`_iterate`, which owns the start residual, the finiteness check, the
one flux evaluation per iterate (the load ``D F(u)`` that gives an
iterate's residual also gives the next step's right-hand side), both
histories and the exits.  Only the step and the stopping history differ:
Newton steps by ``u + (A + C(u))^{-1} (-(A u + D F(u)))`` and stops on the
residual, the fixed point solves ``(A_eps + C(u0)) u_next = C(u0) u - D
F(u)`` over its frozen factors and stops on the step norm.  The fixed point
keeps that form rather than the algebraically equal defect correction
``u - (A_eps + C(u0))^{-1} (A_eps u + D F(u))``: ``A_eps u + D F(u)``
carries round-off of order ``|A_eps| ~ 1/h``, which on fine meshes lifts
the contraction factors of a converged run by orders of magnitude.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .coeff import TensorField
from .fem import (DiscreteField, FemSpace, LinearSolveError, SparseOperator,
                  assemble_diffusion, assemble_divergence_load,
                  assemble_jacobian_coupling, lu_factor, solve_linear)
from .nonlin import Nonlinearity, eval_F, eval_F_jacobian
from .norms import linf_norm, w1p_norm

__all__ = [
    "SolverConfig",
    "SolverReport",
    "UniquenessProbeReport",
    "newton_solve",
    "solve_homogenized",
    "oscillatory_operator",
    "nondegeneracy_margin",
    "approximate_solution",
    "FrozenOperator",
    "fixed_point_solve",
    "local_uniqueness_probe",
]


@dataclass
class SolverConfig:
    """Tolerances and loop limits for the pipeline.

    ``delta`` is the uniqueness-ball radius used by the restart probe; when
    None it defaults to 0.1 * (1 + |u0|_inf) at probe time.  ``mesh_ratio``
    is the required oscillation resolution: h <= eps / mesh_ratio.
    """

    newton_tol: float = 1e-10
    newton_max_iter: int = 25
    fp_tol: float = 1e-9
    fp_max_iter: int = 50
    delta: float | None = None
    mesh_ratio: float = 8.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (f.name == "delta" and value is None or value > 0):
                raise ValueError(f"{f.name} must be positive, got {value}")


@dataclass
class SolverReport:
    """Iteration record of a Newton or fixed-point run."""

    status: str = "running"          # converged | max-iter | diverged
    iterations: int = 0
    residual_history: list = dc_field(default_factory=list)
    step_norms: list = dc_field(default_factory=list)

    @property
    def contraction_factors(self) -> list:
        """Ratios of successive step norms (defined from the second step)."""
        s = self.step_norms
        return [s[k + 1] / s[k] for k in range(len(s) - 1) if s[k] > 0]


def _diverging(history, window: int = 3) -> bool:
    if len(history) < window + 1:
        return False
    tail = history[-(window + 1):]
    return all(tail[k + 1] > tail[k] for k in range(window))


def _flux_load(space: FemSpace, nl: Nonlinearity,
               u: DiscreteField) -> np.ndarray:
    """Free-dof load vector of D F(u)."""
    return assemble_divergence_load(space, eval_F(nl, space, u))


def _iterate(diffusion: SparseOperator, nl: Nonlinearity, u: DiscreteField,
             advance, tol: float, max_iter: int, stop_on: str):
    """The Newton-type loop on A u + D F(u) = 0 from ``u``.

    ``advance(u, load, residual)`` returns the next iterate from an
    accepted one, its load ``D F(u)`` and its residual ``A u + D F(u)``.
    The run converges once the last entry of the report's ``stop_on``
    history (``residual_history`` or ``step_norms``) is at most ``tol``.
    A failed first step propagates; a later one, a non-finite iterate, or
    a flux that cannot be evaluated at the new iterate ends the run as
    diverged at the last accepted iterate.
    """
    space = diffusion.space
    load = _flux_load(space, nl, u)
    residual = diffusion.matrix @ u.free() + load
    report = SolverReport()
    history = getattr(report, stop_on)
    for _ in range(max_iter):
        try:
            u_next = advance(u, load, residual)
        except (LinearSolveError, ValueError):
            if report.iterations == 0:
                raise
            report.status = "diverged"
            break
        try:
            if not np.all(np.isfinite(u_next.values)):
                raise ValueError("non-finite iterate")
            load = _flux_load(space, nl, u_next)
        except ValueError:
            report.status = "diverged"
            break
        report.step_norms.append(w1p_norm(u_next - u))
        u = u_next
        report.iterations += 1
        residual = diffusion.matrix @ u.free() + load
        report.residual_history.append(float(np.linalg.norm(residual)))
        if history[-1] <= tol:
            report.status = "converged"
            break
        if _diverging(history):
            report.status = "diverged"
            break
    else:
        report.status = "max-iter"
    return u, report


def newton_solve(diffusion: SparseOperator, nl: Nonlinearity,
                 cfg: SolverConfig | None = None,
                 start: DiscreteField | None = None):
    """Newton iteration on A u + D F(u) = 0 over ``diffusion.space``.

    Each step solves ``(A + C(u_k)) s = -(A u_k + D F(u_k))``.  Linear
    problems (flux independent of u) converge in exactly one step.
    """
    cfg = cfg or SolverConfig()
    space = diffusion.space

    def advance(u, load, residual):
        C = assemble_jacobian_coupling(space, eval_F_jacobian(nl, space, u))
        return u + solve_linear(diffusion + C, -residual)

    u = start.copy() if start is not None else space.zero_field()
    return _iterate(diffusion, nl, u, advance, cfg.newton_tol,
                    cfg.newton_max_iter, "residual_history")


def solve_homogenized(ahat: SparseOperator, nl: Nonlinearity,
                      cfg: SolverConfig | None = None):
    """Newton solve of the effective problem Ahat u + D F(u) = 0, with
    ``ahat`` the assembled effective operator."""
    return newton_solve(ahat, nl, cfg)


def nondegeneracy_margin(ahat: SparseOperator, nl: Nonlinearity,
                         u0: DiscreteField) -> float:
    """Smallest singular value of the linearized effective operator.

    Estimated by inverse power iteration on the normal equations of
    ``Ahat + C(u0)`` over the free dofs (at most 30 iterations, stopping at
    a relative change of 1e-8), then normalized by the cell measure so
    estimates are comparable across mesh resolutions.  Returns 0.0 when the
    operator cannot be factorized (discretely degenerate).
    """
    space = ahat.space
    C = assemble_jacobian_coupling(space, eval_F_jacobian(nl, space, u0))
    try:
        lu = lu_factor((ahat + C).matrix)
    except LinearSolveError:
        return 0.0
    rng = np.random.default_rng(0)
    x = rng.standard_normal(space.num_free)
    x /= np.linalg.norm(x)
    sigma = np.inf
    for _ in range(30):
        y = lu.solve(lu.solve(x, trans="T"), trans="N")
        lam = np.linalg.norm(y)
        if lam == 0 or not np.isfinite(lam):
            return 0.0
        new_sigma = 1.0 / np.sqrt(lam)
        x = y / lam
        if np.isfinite(sigma) and abs(new_sigma - sigma) <= 1e-8 * sigma:
            sigma = new_sigma
            break
        sigma = new_sigma
    cell_measure = float(space.mesh.cell_measures.mean())
    return float(sigma) / cell_measure


def oscillatory_operator(space: FemSpace, tensor_eps: TensorField,
                         cfg: SolverConfig | None = None) -> SparseOperator:
    """``A_eps`` assembled on ``space``; warns when the mesh does not
    resolve the oscillation (h > eps / mesh_ratio)."""
    cfg = cfg or SolverConfig()
    eps = tensor_eps.epsilon
    if eps is not None and space.mesh.spacing > eps / cfg.mesh_ratio * (
            1 + 1e-12):
        warnings.warn(
            f"mesh spacing h={space.mesh.spacing:.4g} does not resolve the "
            f"oscillation: need h <= eps/{cfg.mesh_ratio:g} = "
            f"{eps / cfg.mesh_ratio:.4g}", stacklevel=2)
    return assemble_diffusion(space, tensor_eps)


def approximate_solution(A_eps: SparseOperator, nl: Nonlinearity,
                         u0: DiscreteField) -> DiscreteField:
    """One linear solve: A_eps ubar + D F(u0) = 0.

    The cheap oscillation-aware starting element: it carries the fine-scale
    structure of the coefficient while borrowing the flux from u0.
    """
    return solve_linear(A_eps, -_flux_load(A_eps.space, nl, u0))


class FrozenOperator:
    """``A_eps + C(u0)`` over its one factorization.

    ``C(u0)`` couples trial values against test gradients through the flux
    derivative at ``u0``.  Building it factors once, and raises
    LinearSolveError when the frozen operator is singular; every iteration
    from it, the fixed-point solve and each restart of the uniqueness
    probe, reuses that factorization.
    """

    def __init__(self, A_eps: SparseOperator, nl: Nonlinearity,
                 u0: DiscreteField):
        space = A_eps.space
        self.A_eps, self.nl, self.u0 = A_eps, nl, u0
        self.C = assemble_jacobian_coupling(space,
                                            eval_F_jacobian(nl, space, u0))
        self.lu = lu_factor((A_eps + self.C).matrix)

    def advance(self, u, load, residual):
        """The fixed-point step: ``u_next`` solves
        ``(A_eps + C(u0)) u_next = C(u0) u - D F(u)``."""
        return self.A_eps.space.field_from_free(
            self.lu.solve(self.C.matrix @ u.free() - load))


def fixed_point_solve(frozen: FrozenOperator, start: DiscreteField,
                      cfg: SolverConfig | None = None):
    """Frozen-operator fixed-point iteration for the oscillatory problem.

    Requires a non-degenerate u0 (positive margin, checked by the caller)
    and a mesh resolving the oscillation.  The pipeline starts at the
    approximate solution.  Divergence (step norms growing over three
    consecutive iterations) usually signals that the oscillation period is
    too large for the frozen linearization to contract.
    """
    cfg = cfg or SolverConfig()
    return _iterate(frozen.A_eps, frozen.nl, start, frozen.advance,
                    cfg.fp_tol, cfg.fp_max_iter, "step_norms")


@dataclass
class UniquenessProbeReport:
    """Outcome of seeded perturbed restarts of the fixed-point iteration."""

    magnitude: float
    delta: float
    outside_ball: bool
    distances: list = dc_field(default_factory=list)
    statuses: list = dc_field(default_factory=list)

    @property
    def all_same(self) -> bool:
        return bool(self.distances) and all(
            s == "converged" for s in self.statuses) and all(
            d <= self.tolerance for d in self.distances)

    tolerance: float = np.nan


def local_uniqueness_probe(frozen: FrozenOperator,
                           cfg: SolverConfig | None = None, trials: int = 10,
                           seed: int = 0, magnitude: float | None = None, *,
                           ubar: DiscreteField,
                           u_eps: DiscreteField) -> UniquenessProbeReport:
    """Restart the iteration from randomly perturbed starting elements.

    Perturbations are nodal fields of max-norm ``magnitude`` (default: half
    the uniqueness radius delta) added to ``ubar``, the approximate solution
    around the frozen operator's ``u0``.  Every restart iterates over
    ``frozen``, the operator whose fixed point gave ``u_eps``, so the probe
    factors nothing.  The report records, per trial, the max-norm distance
    of the recomputed solution from ``u_eps``; runs agree when every
    distance is below ten times the fixed-point tolerance.  Magnitudes
    beyond delta are allowed but flagged as outside the uniqueness ball,
    and only recorded.  A restart that cannot take its first step (its flux
    or its first solve fails at the perturbed start) is recorded as
    diverged, at the start's distance from ``u_eps``.
    """
    cfg = cfg or SolverConfig()
    space = frozen.A_eps.space
    delta = (cfg.delta if cfg.delta is not None
             else 0.1 * (1.0 + linf_norm(frozen.u0)))
    if magnitude is None:
        magnitude = 0.5 * delta
    rng = np.random.default_rng(seed)
    report = UniquenessProbeReport(magnitude=magnitude, delta=delta,
                                   outside_ball=magnitude > delta,
                                   tolerance=10.0 * cfg.fp_tol)
    for _ in range(trials):
        noise = rng.uniform(-1.0, 1.0, size=space.num_free)
        pert = space.field_from_free(noise)
        scale = linf_norm(pert)
        if scale > 0:
            pert = pert * (magnitude / scale)
        start = ubar + pert
        try:
            u_trial, trial_report = fixed_point_solve(frozen, start, cfg)
        except (LinearSolveError, ValueError):
            u_trial, trial_report = start, SolverReport(status="diverged")
        report.statuses.append(trial_report.status)
        report.distances.append(linf_norm(u_trial - u_eps))
    return report
