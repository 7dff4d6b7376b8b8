"""Experiment configuration: one key table, one key set per experiment.

Files are UTF-8 ``key = value`` lines with ``#`` comments.  Every key is
defined once in KEYS, with the parser that checks its value and its
default; EXPERIMENT_KEYS names the keys each experiment reads, and only
those can be set.  A key outside that set, or a value its parser refuses,
is a ConfigError naming the key and where it was given: the file and line,
or the command-line flag.  Structured values (schedules, checkpoint lists,
grids, drift names) are parsed when the config is built and kept as
written.
"""

from __future__ import annotations

import math
import operator
import os
from typing import Callable, NamedTuple

from .drift import drift_by_name
from .metrics import FIT_POINTS, W1_BATCHES
from .schedule import StepSchedule, omega_of


class ConfigError(ValueError):
    pass


def _number(value) -> float:
    """A finite float, also written as a power ``2^-9`` or a ratio ``3/2``."""
    try:
        if not isinstance(value, str):
            number = float(value)
        elif "^" in value:
            base, _, exp = value.partition("^")
            number = float(base) ** float(exp)
        elif "/" in value:
            num, _, den = value.partition("/")
            number = float(num) / float(den)
        else:
            number = float(value)
    except ArithmeticError:  # an overflow, or a ratio over zero
        raise ValueError("must be finite") from None
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {number}")
    return number


def _integer(value) -> int:
    return int(value.replace("_", "")) if isinstance(value, str) else operator.index(value)


def _bounded(parse, test, text):
    def check(value):
        parsed = parse(value)
        if not test(parsed):
            raise ValueError(f"must {text}")
        return parsed

    return check


def _one_of(*choices, **aliases):
    def check(value):
        value = aliases.get(value, value)
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return value

    return check


def _spec(parse):
    """Text that ``parse`` accepts, kept as written (it is parsed again where used)."""

    def check(value):
        if not isinstance(value, str):
            raise TypeError(f"expected text, got {type(value).__name__}")
        parse(value)
        return value

    return check


def parse_schedule(spec: str) -> StepSchedule:
    """Schedule syntax: poly:G1,A, the step formula gamma_k = G1 / k^A.

    c-over-n:C (G1 = C) and c-over-rho-n:C,RHO (G1 = C / RHO) spell its A = 1 case.
    """
    name, _, rest = spec.partition(":")
    try:
        if name == "c-over-n":
            return StepSchedule(gamma1=_number(rest))
        if name == "c-over-rho-n":
            c, rho = (_number(v) for v in rest.split(","))
            if c <= 0.0 or rho <= 0.0:
                raise ValueError("c-over-rho-n needs positive c and rho")
            return StepSchedule(gamma1=c / rho)
        if name == "poly":
            g1, a = (_number(v) for v in rest.split(","))
            return StepSchedule(gamma1=g1, a=a)
    except ValueError as exc:
        raise ConfigError(f"bad schedule spec {spec!r}") from exc
    raise ConfigError(f"unknown schedule family {name!r}")


def doubling(lo: int, hi: int) -> tuple[int, ...]:
    """lo, 2 lo, 4 lo, ... up to hi: the checkpoints of 'lo..hi geometric'."""
    return tuple(lo << k for k in range((hi // lo).bit_length()))


def parse_checkpoints(spec: str) -> tuple[int, ...]:
    """Checkpoint syntax: 'A..B geometric' (doubling) or a positive increasing comma list."""
    spec = spec.strip()
    if ".." in spec:
        rng, *qual = spec.split()
        if qual and qual != ["geometric"]:
            raise ConfigError(f"bad checkpoint qualifier in {spec!r}")
        lo_s, _, hi_s = rng.partition("..")
        lo, hi = int(lo_s), int(hi_s)
        if lo < 1 or hi < lo:
            raise ConfigError(f"bad checkpoint range {spec!r}")
        return doubling(lo, hi)
    cps = tuple(int(v) for v in spec.split(","))
    if cps[0] < 1 or any(a >= b for a, b in zip(cps, cps[1:])):
        raise ConfigError(f"checkpoints must be positive and strictly increasing: {spec!r}")
    return cps


def parse_gamma_grid(spec: str) -> tuple[float, ...]:
    """Gamma-grid syntax: '2^-3..2^-9' (halving) or a comma list; every step finite and > 0."""
    spec = spec.strip()
    if ".." in spec:
        lo_s, _, hi_s = spec.partition("..")
        lo, hi = _number(lo_s), _number(hi_s)
        if not 0 < hi <= lo:
            raise ConfigError(f"bad gamma grid {spec!r}")
        out = []
        g = lo
        while g >= hi * (1.0 - 1e-12):
            out.append(g)
            g /= 2.0
        return tuple(out)
    out = tuple(_number(v) for v in spec.split(","))
    if not all(g > 0 for g in out):
        raise ConfigError(f"gamma grid steps must be > 0: {spec!r}")
    return out


def parse_lambdas(spec: str) -> tuple[float, ...]:
    return tuple(_number(v) for v in spec.split(","))


class Key(NamedTuple):
    parse: Callable  # text (or a Python value) -> value; raises ValueError or TypeError
    default: object


REQUIRED = object()  # default of a key that must be given

_alpha = _bounded(_number, lambda a: 1.0 < a < 2.0, "lie in (1, 2)")
_count = _bounded(_integer, lambda n: n >= 1, "be at least 1")

#: Every key, its parser and its default.
KEYS = {
    "alpha": Key(_alpha, REQUIRED),
    "scheme": Key(
        _one_of("pareto-em", "stable-em", "exact-ou", pareto="pareto-em", stable="stable-em"),
        "pareto-em",
    ),
    "dim": Key(_count, 1),
    "drift": Key(_spec(lambda v: drift_by_name(v, 1)), "ou"),
    "schedule": Key(_spec(parse_schedule), "c-over-n:0.5"),
    "theta": Key(_bounded(_number, lambda t: 0.0 < t <= 1.0, "lie in (0, 1]"), None),  # None: 1/alpha
    "m": Key(_count, 200_000),
    "checkpoints": Key(_spec(parse_checkpoints), "128..8192 geometric"),
    "x0": Key(_number, 0.0),
    "reference": Key(_one_of("ensemble", "oracle"), "ensemble"),
    "workers": Key(_bounded(_integer, lambda n: n >= 0, "be at least 0"), 0),  # 0: env or 1
    "n": Key(_count, 512),
    "lambdas": Key(_spec(parse_lambdas), "0.25,0.5,1,2"),
    "gammas": Key(_spec(parse_gamma_grid), "2^-3..2^-9"),
    # Two antithetic pairs at least, so each estimate has a standard error.
    "mc": Key(_bounded(_integer, lambda n: n >= 4, "be at least 4"), 10_000_000),
    "test_fn": Key(_one_of("cos", "invquad"), "cos"),
    "x": Key(_number, 5.0),
    "y": Key(_number, -5.0),
    "rho_toy": Key(_number, 0.5),
    "n_max": Key(_count, 100_000),
    "sampler": Key(_one_of("stable-vec", "pareto", **{"stable-1d": "stable-vec"}), "stable-vec"),
    "count": Key(_count, 10_000),
    "pairs": Key(_bounded(_integer, lambda n: n >= 1000, "be at least 1000"), 10_000),
    "box": Key(_bounded(_number, lambda b: b > 0.0, "be > 0"), 20.0),
    "seed": Key(_bounded(_integer, lambda s: 0 <= s < 1 << 64, "lie in [0, 2^64)"), 0),
    "out": Key(str, None),  # None: the experiment's name
}

#: The keys each experiment reads; no other key can be set for it.
EXPERIMENT_KEYS = {
    name: keys + ("seed", "out")
    for name, keys in {
        "rate": ("alpha", "scheme", "schedule", "m", "checkpoints", "x0", "reference", "workers"),
        "weak-error": ("alpha", "x0", "gammas", "mc", "test_fn"),
        "ergodicity": ("alpha", "schedule", "m", "checkpoints", "x", "y", "workers"),
        "cf-check": ("alpha", "scheme", "schedule", "m", "n", "x0", "lambdas", "workers"),
        "schedule": ("alpha", "schedule", "theta", "rho_toy", "n_max"),
        "sample": ("alpha", "sampler", "dim", "count"),
        "certify-drift": ("drift", "dim", "pairs", "box"),
    }.items()
}
EXPERIMENTS = tuple(EXPERIMENT_KEYS)

# Where one experiment reads a key with another default or fewer values.
_PER_EXPERIMENT = {
    ("weak-error", "x0"): Key(_number, 0.5),
    ("schedule", "alpha"): Key(_alpha, 1.5),
    ("schedule", "schedule"): Key(KEYS["schedule"].parse, "c-over-rho-n:2,0.5"),  # omega = 1/6
    ("cf-check", "scheme"): Key(_one_of("pareto-em", pareto="pareto-em"), "pareto-em"),
}


def key_spec(experiment: str, key: str) -> Key:
    return _PER_EXPERIMENT.get((experiment, key), KEYS[key])


class _Located(NamedTuple):
    """A value with where it was given, for error messages: ``file:line: `` or ``--flag: ``."""

    value: object
    where: str


def _unpack(value) -> tuple:
    return value if isinstance(value, _Located) else (value, "")


class ExperimentConfig:
    """The settings of one experiment: exactly the keys in EXPERIMENT_KEYS[experiment].

    Keyword values go through the key table like file values, and may be
    given located (see ``flag_values``); unset keys take their defaults.
    """

    def __init__(self, experiment: str, **values):
        experiment, where = _unpack(experiment)
        if experiment not in EXPERIMENT_KEYS:
            raise ConfigError(f"{where}unknown experiment {experiment!r}")
        self.experiment = experiment
        keys = EXPERIMENT_KEYS[experiment]
        where_given = {}
        for key, given in values.items():
            value, where = _unpack(given)
            where_given[key] = where
            if key not in KEYS:
                raise ConfigError(f"{where}unknown key {key!r}")
            if key not in keys:
                raise ConfigError(f"{where}key {key!r} does not apply to experiment {experiment!r}")
            setattr(self, key, self._parse(key, value, where))
        for key in keys:
            if key not in vars(self):
                default = key_spec(experiment, key).default
                if default is REQUIRED:
                    raise ConfigError(f"missing required key: {key}")
                setattr(self, key, default)
        if experiment == "rate" and self.reference == "ensemble" and self.m < 2 * W1_BATCHES:
            raise ConfigError(
                f"{where_given.get('m', '')}bad value for 'm': {self.m} (reference = ensemble "
                f"needs m >= {2 * W1_BATCHES}, 2 chains in each of {W1_BATCHES} batches)"
            )
        # Exact-OU's verdict fits nothing; the other schemes' rate fit needs FIT_POINTS.
        fitted = experiment == "rate" and self.scheme != "exact-ou"
        if fitted and (count := len(self.checkpoint_list())) < FIT_POINTS:
            raise ConfigError(
                f"{where_given.get('checkpoints', '')}bad value for 'checkpoints': "
                f"{self.checkpoints!r} (a rate fit needs {FIT_POINTS} checkpoints, got {count})"
            )
        if experiment == "rate" and self.reference == "oracle" and self.x0 != 0.0:
            raise ConfigError(
                f"{where_given.get('x0', '')}oracle reference needs x0 = 0, got x0 = {self.x0!r}"
            )
        if experiment == "ergodicity" and self.x == self.y:
            # Coupled from one start the distance is 0 at every step: no decay to fit.
            where = where_given.get("y") or where_given.get("x", "")
            raise ConfigError(f"{where}x and y must differ, got x = y = {self.x!r}")
        if experiment == "schedule" and self.rho_toy <= (
            omega := omega_of(self.build_schedule(), self.effective_theta)
        ):
            key = "rho_toy" if "rho_toy" in where_given else "schedule"
            raise ConfigError(
                f"{where_given.get(key, '')}bad value for {key!r}: {getattr(self, key)!r} "
                f"(need rho_toy > omega, got rho_toy = {self.rho_toy!r} <= omega = {omega!r})"
            )
        # The chain-law oracles contract by 1 - gamma_j at every step; the
        # steps decrease, so gamma_1 < 1 covers every step.
        chain_law = experiment == "cf-check" or (
            experiment == "rate" and self.reference == "oracle" and self.scheme != "exact-ou"
        )
        if chain_law and (gamma1 := self.build_schedule().gamma_at(1)) >= 1.0:
            raise ConfigError(
                f"{where_given.get('schedule', '')}bad value for 'schedule': {self.schedule!r} "
                f"(the chain-law oracle needs every step below 1, got gamma_1 = {gamma1!r})"
            )

    def _parse(self, key: str, value, where: str):
        try:
            return key_spec(self.experiment, key).parse(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{where}bad value for {key!r}: {value!r} ({exc})") from None

    @property
    def effective_theta(self) -> float:
        theta = getattr(self, "theta", None)  # only `schedule` reads theta
        return float(theta) if theta is not None else 1.0 / self.alpha

    @property
    def effective_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        env = os.environ.get("STABLEEM_WORKERS")
        if not env:
            return 1
        return self._parse("workers", env, "STABLEEM_WORKERS: ") or 1

    def build_schedule(self) -> StepSchedule:
        return parse_schedule(self.schedule)

    def checkpoint_list(self) -> tuple[int, ...]:
        return parse_checkpoints(self.checkpoints)

    def gamma_grid(self) -> tuple[float, ...]:
        return parse_gamma_grid(self.gammas)

    def lambda_list(self) -> tuple[float, ...]:
        return parse_lambdas(self.lambdas)

    def echo(self) -> dict:
        return {key: getattr(self, key) for key in EXPERIMENT_KEYS[self.experiment]}


def flag_values(flags: dict) -> dict:
    """Command-line values, located by their flag for error messages."""
    return {key: _Located(value, f"--{key}: ") for key, value in flags.items()}


def load_config(path: str, overrides: dict | None = None, experiment: str = "") -> ExperimentConfig:
    """Parse a key = value file into the config of its experiment.

    ``overrides`` (from ``flag_values``) replace the file's values before
    the config is built.  ``experiment``, when given, must be the file's
    experiment; this is checked before any value is.
    """
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}: "
            if "=" not in line:
                raise ConfigError(f"{where}expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in values:
                raise ConfigError(f"{where}duplicate key {key!r}")
            values[key] = _Located(value, where)
    if "experiment" not in values:
        raise ConfigError(f"{path}: missing required key: experiment")
    file_experiment = values["experiment"].value
    if experiment and file_experiment != experiment:
        raise ConfigError(f"config file is for {file_experiment!r}, subcommand is {experiment!r}")
    values.update(overrides or {})
    return ExperimentConfig(**values)
