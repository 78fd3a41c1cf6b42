"""Flat key=value experiment configs.

A config file holds optional global keys (output_dir, wine_path) followed by
one or more run blocks:

    output_dir = runs

    [run.dl]
    problem = linear          # linear | wine | toy
    solver = double_loop      # double_loop | double_clip | mgda | modo
    seeds = 0,1,2
    lambda = 1.0
    g = auto
    alpha = 5e-5

`#` starts a comment anywhere on a line. Unknown keys are rejected with
their line number; problem and solver are the only required keys, all
hyperparameters have per-solver defaults (the synthetic-regression presets).
Presets for the two reference experiments ship with the package, see
preset_names().
"""

import math
import re
from dataclasses import dataclass, field
from importlib import resources

PROBLEMS = ("linear", "wine", "toy")
SOLVERS = ("double_loop", "double_clip", "mgda", "modo")

# key -> python type, per solver; "g" is special-cased (float or "auto")
_COMMON_TYPES = {
    "problem": str,
    "solver": str,
    "seeds": "seed_list",
    "lambda": float,
    "g": "auto_or_float",
    "data_seed": int,
    "toy_draws": int,
    "toy_std": float,
}
_SOLVER_TYPES = {
    "double_loop": {"T": int, "D": int, "B": int, "alpha": float, "beta": float,
                    "gamma": float, "rho": float},
    "double_clip": {"T": int, "B": int, "N1": int, "N2": int, "gamma": float,
                    "beta": float, "rho": float, "c1": float, "c2": float,
                    "f1": float, "f2": float},
    "mgda": {"T": int, "B": int, "lr": float, "beta": float, "rho": float},
    "modo": {"T": int, "B": int, "lr": float, "beta": float, "rho": float},
}
_SOLVER_DEFAULTS = {
    "double_loop": {"T": 600, "D": 20, "B": 256, "alpha": 5e-5, "beta": 5e-5,
                    "gamma": 5e-3, "rho": 1e-5},
    "double_clip": {"T": 600, "B": 256, "gamma": 1e-2, "beta": 5e-4, "rho": 1e-5,
                    "c1": 0.5, "c2": 0.1, "f1": 0.5, "f2": 0.1},
    "mgda": {"T": 600, "B": 256, "lr": 1e-5, "beta": 1e-5, "rho": 0.0},
    "modo": {"T": 600, "B": 256, "lr": 1e-5, "beta": 1e-5, "rho": 1e-5},
}
_GLOBAL_KEYS = ("output_dir", "wine_path")

_SECTION_RE = re.compile(r"^\[run\.([A-Za-z0-9_.-]+)\]$")


class ConfigError(ValueError):
    """Config parse or validation failure; messages carry line numbers."""


@dataclass
class ExperimentConfig:
    """One fully resolved run block."""

    name: str
    problem: str
    solver: str
    seeds: list
    lam: float = 1.0
    g: object = "auto"  # "auto" or a positive float
    data_seed: int = 0
    toy_draws: int = 200
    toy_std: float = 0.5
    output_dir: str = "runs"
    wine_path: str = None
    params: dict = field(default_factory=dict)  # solver hyperparameters, typed


def _convert(key, raw, typ, lineno):
    if typ is str:
        return raw
    if typ is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: key {key!r} expects an integer, got {raw!r}") from None
    if typ is float:
        try:
            v = float(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: key {key!r} expects a real number, got {raw!r}") from None
        if not math.isfinite(v):
            raise ConfigError(f"line {lineno}: key {key!r} must be finite, got {raw!r}")
        return v
    if typ == "seed_list":
        try:
            seeds = [int(s.strip()) for s in raw.split(",") if s.strip() != ""]
        except ValueError:
            raise ConfigError(f"line {lineno}: key 'seeds' expects comma-separated integers, got {raw!r}") from None
        if not seeds:
            raise ConfigError(f"line {lineno}: key 'seeds' is empty")
        return seeds
    if typ == "auto_or_float":
        if raw == "auto":
            return "auto"
        try:
            v = float(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: key 'g' expects 'auto' or a positive real, got {raw!r}") from None
        if not 0 < v < math.inf:
            raise ConfigError(f"line {lineno}: key 'g' must be positive and finite, got {raw!r}")
        return v
    raise AssertionError(typ)


def _finish_block(name, section_line, entries, globals_):
    """Validate and type one run block's raw (key, value, line) entries."""
    raw = {}
    for key, value, lineno in entries:
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [run.{name}]")
        raw[key] = (value, lineno)

    missing = [k for k in ("problem", "solver") if k not in raw]
    if missing:
        raise ConfigError(
            f"line {section_line}: [run.{name}] is missing required keys: {', '.join(missing)}"
        )
    problem, pl = raw.pop("problem")
    if problem not in PROBLEMS:
        raise ConfigError(f"line {pl}: unknown problem {problem!r}; choose from {PROBLEMS}")
    solver, sl = raw.pop("solver")
    if solver not in SOLVERS:
        raise ConfigError(f"line {sl}: unknown solver {solver!r}; choose from {SOLVERS}")

    solver_types = _SOLVER_TYPES[solver]
    cfg = ExperimentConfig(name=name, problem=problem, solver=solver, seeds=[0],
                           output_dir=globals_["output_dir"], wine_path=globals_["wine_path"])
    params = dict(_SOLVER_DEFAULTS[solver])
    for key, (value, lineno) in raw.items():
        if key in _COMMON_TYPES and key not in ("problem", "solver"):
            typed = _convert(key, value, _COMMON_TYPES[key], lineno)
            attr = {"lambda": "lam"}.get(key, key)
            setattr(cfg, attr, typed)
        elif key in solver_types:
            params[key] = _convert(key, value, solver_types[key], lineno)
        else:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} for solver {solver!r} "
                f"(allowed: {sorted(set(_COMMON_TYPES) | set(solver_types))})"
            )
    if solver == "double_clip":
        params.setdefault("N1", params["B"])
        params.setdefault("N2", params["B"])
    cfg.params = params
    return cfg


def parse_config(text: str):
    """Parse a config file's text into a list of ExperimentConfig blocks."""
    globals_ = {"output_dir": "runs", "wine_path": None}
    runs = []
    current = None  # (name, section_line, entries)
    seen_names = set()

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        msec = _SECTION_RE.match(line)
        if msec:
            if current is not None:
                runs.append(_finish_block(*current, globals_))
            name = msec.group(1)
            if name in seen_names:
                raise ConfigError(f"line {lineno}: duplicate run name {name!r}")
            seen_names.add(name)
            current = (name, lineno, [])
            continue
        if line.startswith("["):
            raise ConfigError(f"line {lineno}: malformed section header {line!r} (expected [run.NAME])")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if current is None:
            if key not in _GLOBAL_KEYS:
                raise ConfigError(
                    f"line {lineno}: unknown global key {key!r} (allowed: {_GLOBAL_KEYS}); "
                    f"solver keys belong inside a [run.NAME] section"
                )
            globals_[key] = value
            continue
        current[2].append((key, value, lineno))

    if current is not None:
        runs.append(_finish_block(*current, globals_))
    if not runs:
        raise ConfigError("config defines no [run.NAME] sections")
    return runs


def build_solver_config(cfg: ExperimentConfig, seed: int):
    """Instantiate the typed solver config for one seed of a run block."""
    from . import solvers

    p = cfg.params
    if cfg.solver == "double_loop":
        return solvers.DoubleLoopConfig(alpha=p["alpha"], beta=p["beta"], gamma=p["gamma"],
                                        rho=p["rho"], T=p["T"], D=p["D"], B=p["B"], seed=seed)
    if cfg.solver == "double_clip":
        return solvers.DoubleClipConfig(gamma=p["gamma"], beta=p["beta"], rho=p["rho"],
                                        c1=p["c1"], c2=p["c2"], f1=p["f1"], f2=p["f2"],
                                        N1=p["N1"], N2=p["N2"], T=p["T"], seed=seed)
    return solvers.BaselineConfig(lr=p["lr"], beta=p["beta"], rho=p["rho"],
                                  T=p["T"], B=p["B"], seed=seed)


def preset_names():
    """Names of the packaged experiment presets (filename without .cfg)."""
    root = resources.files("drmoo") / "presets"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_preset(name: str) -> str:
    """Text of a packaged preset config."""
    path = resources.files("drmoo") / "presets" / f"{name}.cfg"
    if not path.is_file():
        raise ConfigError(f"unknown preset {name!r}; available: {preset_names()}")
    return path.read_text(encoding="utf-8")
