"""Distributionally robust multi-objective optimization via the dual.

Each objective is hardened against data perturbations through a chi-square
ambiguity set; the dual reformulation turns the inner worst case into one
extra scalar variable per objective. The package provides the dual oracle
(`dual`), simplex projection (`simplex`), benchmark problems (`problems`),
the double-loop and double-clip solvers plus two baselines (`solvers`),
frontier and stationarity metrics (`metrics`), CSV trace and config I/O
(`trace`, `config`), and a CLI (`python -m drmoo` or the `drmoo` script).
"""

from .config import (
    ConfigError,
    ExperimentConfig,
    load_preset,
    parse_config,
    preset_names,
)
from .dual import (
    Conjugate,
    DualContext,
    ObjectiveJacobian,
    batch_oracle,
    conjugate_deriv,
    conjugate_value,
    dual_value,
    exact_dual_min,
    grad_eta,
    grad_theta,
    phi_oracle,
    rescaled_grads,
)
from .metrics import (
    FrontierPoint,
    balanced_grad_norm,
    pareto_filter,
    robust_frontier,
    surrogate_stationarity,
    window_means,
)
from .problems import (
    LinearSpec,
    MultiTaskProblem,
    ToySpec,
    estimate_lipschitz,
    gen_linear,
    load_wine_tasks,
    perturb_toy,
    synthesize_wine_csv,
    toy_objectives,
    toy_problem,
)
from .simplex import project_simplex, uniform_preference
from .solvers import (
    BaselineConfig,
    DoubleClipConfig,
    DoubleLoopConfig,
    RunTrace,
    SolverDivergence,
    run_double_clip,
    run_double_loop,
    run_modo,
    run_stochastic_mgda,
)
from .svg import emit_svg_plot, emit_svg_scatter
from .trace import read_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "BaselineConfig",
    "ConfigError",
    "Conjugate",
    "DoubleClipConfig",
    "DoubleLoopConfig",
    "DualContext",
    "ExperimentConfig",
    "FrontierPoint",
    "LinearSpec",
    "MultiTaskProblem",
    "ObjectiveJacobian",
    "RunTrace",
    "SolverDivergence",
    "ToySpec",
    "balanced_grad_norm",
    "batch_oracle",
    "conjugate_deriv",
    "conjugate_value",
    "dual_value",
    "emit_svg_plot",
    "emit_svg_scatter",
    "estimate_lipschitz",
    "exact_dual_min",
    "gen_linear",
    "grad_eta",
    "grad_theta",
    "load_preset",
    "load_wine_tasks",
    "parse_config",
    "pareto_filter",
    "perturb_toy",
    "phi_oracle",
    "preset_names",
    "project_simplex",
    "read_trace",
    "rescaled_grads",
    "robust_frontier",
    "run_double_clip",
    "run_double_loop",
    "run_modo",
    "run_stochastic_mgda",
    "surrogate_stationarity",
    "synthesize_wine_csv",
    "toy_objectives",
    "toy_problem",
    "uniform_preference",
    "window_means",
    "write_trace",
]
