"""homfem: desk-scale homogenization of semilinear divergence-form systems.

The toolkit computes effective diffusion tensors for periodically
oscillating coefficients (with optional localized defects), solves the
effective semilinear system by Newton iteration, certifies discrete
non-degeneracy of the solution, and recovers the oscillatory solution by a
frozen-operator fixed-point iteration started at the one-solve approximate
solution.  Norm and convergence diagnostics round out the picture.
"""

from .mesh import Mesh, build_interval_mesh, build_periodic_cell_mesh, build_unit_square_mesh
from .coeff import (ConstantTensor, ExpressionTensor, HomogenizedTensor,
                    PiecewiseTensor, TensorField, add_defect)
from .fem import (DiscreteField, FemSpace, LinearSolveError, SparseOperator,
                  assemble_diffusion, assemble_divergence_load,
                  assemble_jacobian_coupling, solve_linear)
from .cell import CorrectorSet, homogenized_tensor_1d, solve_cell_problems
from .nonlin import (Constant, LinearForm, Monomial, Nonlinearity, Polynomial,
                     Rational, Term, eval_F, eval_F_jacobian, validate)
from .norms import (fit_rate, h_convergence_probe, linf_norm, meyers_probe,
                    w1p_norm)
from .solver import (FrozenOperator, SolverConfig, SolverReport,
                     approximate_solution, fixed_point_solve,
                     local_uniqueness_probe, nondegeneracy_margin,
                     oscillatory_operator, solve_homogenized)

# the experiment driver lives in homfem.cli (console script: homfem)

__version__ = "0.1.0"
