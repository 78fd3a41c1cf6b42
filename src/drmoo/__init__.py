"""Distributionally robust multi-objective optimization via the dual.

Each objective is hardened against data perturbations through a chi-square
ambiguity set; the dual reformulation turns the inner worst case into one
extra scalar variable per objective. The package provides the dual oracle
(`dual`), simplex projection (`simplex`), benchmark problems (`problems`),
the double-loop and double-clip solvers plus two baselines (`solvers`),
frontier and stationarity metrics (`metrics`), CSV trace and config I/O
(`trace`, `config`), and a CLI (`python -m drmoo` or the `drmoo` script).
Import from those modules; the package root holds only __version__.
"""

__version__ = "0.1.0"
