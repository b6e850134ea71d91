"""Run configuration: strict schema, validation, and dict round-trips.

Unknown and repeated keys anywhere in the config are hard errors; sweep
reproducibility cannot tolerate silently ignored typos. Every field has
a default, and `RunConfig.to_dict` writes them all, so the config
echoed into a log header re-validates and reproduces the run exactly.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Any, Literal, Optional, get_args, get_origin, get_type_hints

from .costs import STRATEGY_GLOBAL, STRATEGY_LOCAL
from .optimizer import QHM_FULL_RANK, QHM_LOW_RANK, QHM_NONE
from .problems import SHARD_FEATURE_BLOCKS, SHARD_IID

# Cap on the arrays `_array_bytes` counts. Set-up holds exactly these, plus
# one `problems.NOISE_BLOCK_ROWS`-row block of label noise and small temporaries for x_star.
MAX_ARRAY_BYTES = 1 << 30
BLOCK_STEPS = 64  # steps whose batches the engine draws from each worker's stream at once


class ConfigError(ValueError):
    """Configuration rejected; message names the offending field."""


@dataclass(frozen=True)
class ProblemConfig:
    type: Literal["matrix_regression"] = "matrix_regression"
    rows: int = 64
    cols: int = 64
    design_rows: int = 4096
    noise_std: float = 0.1
    shard_policy: Literal[SHARD_IID, SHARD_FEATURE_BLOCKS] = SHARD_IID
    batch_size: int = 32
    target_rank: Optional[int] = None
    target_alpha: float = 0.5


@dataclass(frozen=True)
class SyncSchedule:
    k_x: int = 32
    k_u: int = 32
    k_v: int = 32


@dataclass(frozen=True)
class ProjectionConfig:
    strategy: Literal[STRATEGY_GLOBAL, STRATEGY_LOCAL] = STRATEGY_GLOBAL
    refresh: bool = True


@dataclass(frozen=True)
class QhmConfig:
    mode: Literal[QHM_NONE, QHM_LOW_RANK, QHM_FULL_RANK] = QHM_NONE
    omega: Optional[float] = None
    start_step: int = 0


@dataclass(frozen=True)
class HyperConfig:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_radius: float = 1.0
    lr: float = 0.01
    warmup_steps: int = 0

    def lr_at(self, t: int) -> float:
        """Linear warmup to `lr` over warmup_steps, constant afterwards."""
        if self.warmup_steps <= 0:
            return self.lr
        return self.lr * min(1.0, (t + 1) / self.warmup_steps)


@dataclass(frozen=True)
class FlagsConfig:
    rotate_moments: bool = True
    error_feedback: bool = True


@dataclass(frozen=True)
class RunConfig:
    master_seed: int = 0
    workers: int = 1
    steps: int = 100
    rank: int = 8
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    schedule: SyncSchedule = field(default_factory=SyncSchedule)
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    qhm: QhmConfig = field(default_factory=QhmConfig)
    hyperparams: HyperConfig = field(default_factory=HyperConfig)
    flags: FlagsConfig = field(default_factory=FlagsConfig)

    def to_dict(self) -> dict:
        return asdict(self)


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number"}


def _check_type(path: str, value: Any, hint) -> None:
    """Reject a value unlike its annotation: bool is no int, ints pass as floats, floats are finite,
    a Literal field takes only its listed strings, and no int passes the int-to-str digit limit."""
    args = get_args(hint)  # Optional[X] -> (X, NoneType); Literal['a', 'b'] -> ('a', 'b')
    if value is None and type(None) in args:
        return
    if get_origin(hint) is Literal:
        ok, expected = value in args, "one of " + ", ".join(map(repr, args))
    else:
        kind = args[0] if args else hint
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if kind is float:
            ok = number and abs(value) <= sys.float_info.max  # False for inf and nan
        elif kind is int:
            ok = number and isinstance(value, int)
        else:
            ok = isinstance(value, kind)
        expected = _TYPE_NAMES[kind]
    fits, got = _shown(value)
    if not (ok and fits):
        raise ConfigError(f"{path} must be {expected}, got {got}")


def _shown(value: Any, show=repr) -> tuple[bool, str]:
    """(True, show(value)) cut to its first 20 characters plus '...', a string cut before `show` quotes it;
    or (False, how messages name it) for an int past the int-to-str digit limit."""
    cut = isinstance(value, str) and len(value) > 20
    try:
        text = show(value[:20] + "..." if cut else value)
    except ValueError:  # str and repr refuse such an int, and so would the log header's json.dumps
        return False, f"an integer of more than {sys.get_int_max_str_digits()} digits"
    return True, text if cut or len(text) <= 20 else text[:20] + "..."


def _build(cls, data: Any, prefix: str = ""):
    """Build dataclass `cls` from a mapping: reject unknown keys, then check each value against its type."""
    if not isinstance(data, dict):
        where = f"section '{prefix[:-1]}'" if prefix else "config"
        raise ConfigError(f"{where} must be a mapping, got {type(data).__name__}")
    hints = get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        # str sorts keys of mixed types, which YAML allows (`1: 2` next to `foo: 3`);
        # repr keeps a key holding a newline on one line
        raise ConfigError(f"unknown key {prefix + min(_shown(key, str)[1] for key in unknown)!r}")
    kwargs = {}
    for key, value in data.items():
        if is_dataclass(hints[key]):
            kwargs[key] = _build(hints[key], value, f"{prefix}{key}.")
        else:
            _check_type(prefix + key, value, hints[key])
            kwargs[key] = value
    return cls(**kwargs)


def from_dict(data: dict) -> RunConfig:
    """Build and check a config mapping: the schema's types, then `_validate`'s rules. Unknown keys are hard errors."""
    cfg = _build(RunConfig, data)
    _validate(cfg)
    return cfg


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _array_bytes(cfg: RunConfig) -> int:
    """Bytes of the problem's arrays, the shared anchor, the worker stack and its batch indices."""
    p = cfg.problem
    # design, labels; x_star and the anchor
    shared = p.design_rows * (p.rows + p.cols) + 2 * p.rows * p.cols
    # x, error and the gradient buffer; u and v; the bases
    stack = 3 * p.rows * p.cols + 2 * cfg.rank * p.cols + p.rows * cfg.rank
    # a block's int64 training and eval indices; a batch past its shard is rejected below, by name
    stack += 2 * min(BLOCK_STEPS, cfg.steps) * min(p.batch_size, p.design_rows // cfg.workers)
    return 8 * (shared + cfg.workers * stack)


def _validate(cfg: RunConfig) -> None:
    """Range and cross-field rules of a config whose types `_build` checked; raises ConfigError naming the field."""
    _check(cfg.master_seed >= 0, "master_seed must be a non-negative integer")
    _check(cfg.workers >= 1, "workers must be >= 1")
    _check(cfg.steps >= 1, "steps must be >= 1")
    p = cfg.problem
    _check(p.rows >= 1 and p.cols >= 1, "problem.rows and problem.cols must be >= 1")
    # before the rules below, so that an oversized config reports the cap and not a rule it also breaks
    need = _array_bytes(cfg)
    if need > MAX_ARRAY_BYTES:
        # imported here, so that a config under the cap does not pay for it
        from decimal import Decimal
        from fractions import Fraction

        # GiB to two decimals in exact arithmetic, since `need` can pass the float range;
        # Decimal prints ints longer than the interpreter's int-to-str digit limit
        gib, hundredths = divmod(round(Fraction(100 * need, 2**30)), 100)
        raise ConfigError(f"problem.design_rows, problem.rows, problem.cols, workers and rank need "
                          f"{Decimal(gib)}.{hundredths:02d} GiB of arrays, over the {MAX_ARRAY_BYTES / 2**30:g} GiB cap")
    _check(1 <= cfg.rank <= min(p.rows, p.cols),
           f"rank must lie in [1, {min(p.rows, p.cols)}] for a {p.rows}x{p.cols} problem")
    _check(p.design_rows >= cfg.workers, "problem.design_rows must cover every worker")
    _check(p.design_rows % cfg.workers == 0,
           f"problem.design_rows={p.design_rows} must divide evenly across workers={cfg.workers}")
    _check(p.noise_std >= 0.0, "problem.noise_std must be >= 0")
    if p.shard_policy == SHARD_FEATURE_BLOCKS:
        _check(p.rows % cfg.workers == 0, "problem.rows must divide evenly across workers for feature_blocks")
    shard_rows = p.design_rows // cfg.workers
    _check(1 <= p.batch_size <= shard_rows,
           f"problem.batch_size must lie in [1, {shard_rows}] (shard size)")
    if p.target_rank is not None:
        _check(1 <= p.target_rank <= min(p.rows, p.cols), "problem.target_rank out of range")
        _check(p.target_alpha > 0.0, "problem.target_alpha must be positive")
    s = cfg.schedule
    _check(s.k_x >= 1 and s.k_u >= 1 and s.k_v >= 1, "schedule periods must be >= 1")
    if cfg.qhm.mode == QHM_NONE:
        _check(cfg.qhm.omega is None, "qhm.omega must be omitted when qhm.mode is 'none'")
    else:
        _check(cfg.qhm.omega is not None, f"qhm.omega is required when qhm.mode is '{cfg.qhm.mode}'")
        _check(0.0 <= cfg.qhm.omega <= 1.0, "qhm.omega must lie in [0, 1]")
    _check(0 <= cfg.qhm.start_step <= cfg.steps, "qhm.start_step must lie in [0, steps]")
    h = cfg.hyperparams
    _check(0.0 <= h.beta1 < 1.0, "hyperparams.beta1 must lie in [0, 1)")
    _check(0.0 <= h.beta2 < 1.0, "hyperparams.beta2 must lie in [0, 1)")
    _check(h.eps > 0.0, "hyperparams.eps must be positive")
    _check(h.clip_radius > 0.0, "hyperparams.clip_radius must be positive")
    _check(h.lr > 0.0, "hyperparams.lr must be positive")
    _check(0 <= h.warmup_steps < cfg.steps, "hyperparams.warmup_steps must lie in [0, steps)")


def load_file(path: str) -> RunConfig:
    """Load and validate a YAML config file; a mapping that repeats a key is an error."""
    import yaml

    class StrictLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            mapping = super().construct_mapping(node, deep=deep)
            if len(mapping) < len(node.value):  # node.value now includes the pairs of any merge key
                seen = set()
                for key_node, _ in node.value:
                    key = self.construct_object(key_node)
                    if key in seen:
                        raise yaml.constructor.ConstructorError(None, None, f"repeated key {key!r}", key_node.start_mark)
                    seen.add(key)
            return mapping

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.load(fh, Loader=StrictLoader)
        # ValueError: an int longer than the interpreter's int-from-str digit limit
        except (yaml.YAMLError, UnicodeDecodeError, RecursionError, ValueError) as exc:
            # YAML messages span several lines; the CLI reports errors on one
            raise ConfigError("cannot parse config file: " + " ".join(str(exc).split())) from exc
    if data is None:
        raise ConfigError("config file is empty")
    return from_dict(data)
