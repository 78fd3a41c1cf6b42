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

`#` starts a comment anywhere on a line. problem and solver are the only
required keys. A block may also set seeds, lambda, g, the keys of the fields
its problem reads (PROBLEMS; blocks that agree on those share one problem),
and the fields of its solver's config dataclass in solvers.SOLVERS, which also
supplies the defaults (the synthetic-regression settings); double_clip also
takes B, which sets N1 and N2 when they are not given. Everything is checked
while parsing: an unknown or repeated key, a malformed or out-of-range value
or a repeated seed fails with its line number, and a value the solver's
dataclass rejects fails with the block's line number. Presets for the two
reference experiments ship with the package, see preset_names().
"""

import math
import re
from dataclasses import dataclass, field, fields, replace
from importlib import resources

from .solvers import SOLVERS

PROBLEMS = {"linear": ("data_seed",), "wine": ("wine_path",),
            "toy": ("data_seed", "toy_std", "toy_draws")}  # the fields each build reads
_PROBLEM_FIELDS = {f for read in PROBLEMS.values() for f in read}

_POSITIVE = ("positive", lambda v: v > 0)
_NONNEGATIVE = ("nonnegative", lambda v: v >= 0)

# common block key -> (ExperimentConfig attribute, type, (range name, test))
_COMMON_KEYS = {
    "seeds": ("seeds", "seed_list", _NONNEGATIVE),
    "lambda": ("lam", float, _POSITIVE),
    "g": ("g", "auto_or_float", _POSITIVE),
    "data_seed": ("data_seed", int, _NONNEGATIVE),
    "toy_draws": ("toy_draws", int, _POSITIVE),
    "toy_std": ("toy_std", float, _NONNEGATIVE),
}
_EXPECTS = {
    int: "an integer",
    float: "a real number",
    "seed_list": "comma-separated integers",
    "auto_or_float": "'auto' or a positive real",
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
    params: dict = field(default_factory=dict)  # the solver config's fields but seeds


def _convert(key, raw, typ, lineno, valid=None):
    """raw as a finite value of typ; valid = (name, test) bounds it (every
    seed of a seed list, which must not repeat a seed)."""
    if typ == "auto_or_float" and raw == "auto":
        return raw
    try:
        if typ == "seed_list":
            value = [int(s) for s in raw.split(",") if s.strip()]
        else:
            value = int(raw) if typ is int else float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: key {key!r} expects {_EXPECTS[typ]}, got {raw!r}") from None
    items = value if typ == "seed_list" else [value]
    if not items:
        raise ConfigError(f"line {lineno}: key {key!r} is empty")
    if not all(map(math.isfinite, items)):
        raise ConfigError(f"line {lineno}: key {key!r} must be finite, got {raw!r}")
    if valid is not None and not all(map(valid[1], items)):
        raise ConfigError(f"line {lineno}: key {key!r} must be {valid[0]}, got {raw!r}")
    repeats = [s for k, s in enumerate(items) if s in items[:k]]
    if repeats:
        raise ConfigError(f"line {lineno}: key {key!r} repeats seed {repeats[0]}")
    return value


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
        raise ConfigError(f"line {pl}: unknown problem {problem!r}; choose from {tuple(PROBLEMS)}")
    solver, sl = raw.pop("solver")
    if solver not in SOLVERS:
        raise ConfigError(f"line {sl}: unknown solver {solver!r}; choose from {tuple(SOLVERS)}")

    default = SOLVERS[solver][1]
    solver_types = {f.name: f.type for f in fields(default) if f.name != "seeds"}
    if solver == "double_clip":
        solver_types["B"] = int
    common = {k: v for k, v in _COMMON_KEYS.items()
              if v[0] in PROBLEMS[problem] or v[0] not in _PROBLEM_FIELDS}
    cfg = ExperimentConfig(name=name, problem=problem, solver=solver, seeds=[0], **globals_)
    params = {}
    for key, (value, lineno) in raw.items():
        if key in common:
            attr, typ, valid = common[key]
            setattr(cfg, attr, _convert(key, value, typ, lineno, valid))
        elif key in solver_types:
            params[key] = _convert(key, value, solver_types[key], lineno)
        else:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} for solver {solver!r} and problem "
                f"{problem!r} (allowed: {sorted({'problem', 'solver', *common, *solver_types})})"
            )
    if solver == "double_clip" and "B" in params:
        b = params.pop("B")
        params = {"N1": b, "N2": b, **params}
    try:
        built = replace(default, **params)
    except ValueError as exc:
        raise ConfigError(f"line {section_line}: [run.{name}]: {exc}") from None
    cfg.params = {f.name: getattr(built, f.name) for f in fields(built) if f.name != "seeds"}
    return cfg


def parse_config(text: str):
    """Parse a config file's text into a list of ExperimentConfig blocks."""
    globals_ = {}  # the global keys given; ExperimentConfig holds their defaults
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
            if key in globals_:
                raise ConfigError(f"line {lineno}: duplicate global key {key!r}")
            globals_[key] = value
            continue
        current[2].append((key, value, lineno))

    if current is not None:
        runs.append(_finish_block(*current, globals_))
    if not runs:
        raise ConfigError("config defines no [run.NAME] sections")
    return runs


def build_solver_config(cfg: ExperimentConfig, seeds):
    """The solver config of a group of a run block's seeds, run in lockstep."""
    return replace(SOLVERS[cfg.solver][1], **cfg.params, seeds=tuple(seeds))


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
