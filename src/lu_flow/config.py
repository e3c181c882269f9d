"""Run parameters with their rules, config parsing, canonical hashing and manifests.

The config file is JSON.  Schema (defaults in parentheses):

    {
      "N": int (32),            # grid modes per dimension, even, in [8, 759250124]
      "Re": float (100.0),
      "eps": float (0.1),
      "dt": float (1e-3),
      "T": float (1.0),
      "record_every": int (10),
      "initial": {"kind": "taylor_green", "scale": float (1.0)}
               | {"kind": "random_band", "k_min": float >= 0 (1), "k_max": float >= 0 (N // 4),
                  "energy": float > 0 (1.0), "seed": int in [0, 2^64) (0)}
               | {"kind": "file", "path": str},     # path required; default taylor_green
      "noise": {"K": int (4), "r": float (3.0), "amp": float (1.0),
                "seed": int in [0, 2^64) (0), "mix": bool (false)},
      "study": {"epsilons": [float, ...] ([0.2, 0.1, 0.05]),
                "ensemble_size": int (64)}   # optional
    }

``study.epsilons`` holds at least two distinct numbers in (0, 1];
``study.ensemble_size`` is an integer >= 1 (>= 2 for ``ensemble``) whose
member errors, one per epsilon, an array can index.
Unknown keys are rejected; every number must be finite.  All of it, ``initial``
too, is checked when the config is read, apart from the snapshot file itself;
a ``random_band`` band must hold a nonzero, non-Nyquist mode of the grid.
The LU_FLOW_SEED environment variable, when set, overrides the noise seed
(recorded in the manifest); it must be an integer in [0, 2^64), as must both
seeds of the file: Philox takes keys below 2^64.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .noise import max_modes
from .spectral import band_mask

# the rule of a seed: an integer Philox can take as a key
_SEED = {"integer": True, "minimum": 0, "maximum": 2**64 - 1}
# {kind: {key: rule}} of ``initial``: the keywords of ``_check_number`` for a
# number that may be left out, or ``str`` for a string that must be given
_INITIAL = {
    "taylor_green": {"scale": {}},
    "random_band": {"k_min": {"minimum": 0}, "k_max": {"minimum": 0},
                    "energy": {"positive": True}, "seed": _SEED},
    "file": {"path": str},
}
_STUDY_DEFAULTS = {"epsilons": [0.2, 0.1, 0.05], "ensemble_size": 64}


class ConfigError(ValueError):
    """Schema or physical-validity violation, with the offending field."""


class _FrozenParams(dict):
    """The ``initial`` parameters of a checked config: a dict that cannot be
    changed, so the checks hold, and that pickles as one (``ensemble --jobs``
    sends the config to its workers)."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a config's initial_params cannot be changed; "
                        "dataclasses.replace makes a new config")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)


def _check_number(value, name, *, positive=False, integer=False, minimum=None,
                  maximum=None):
    if integer and not isinstance(value, int):
        raise ConfigError(f"field {name!r} must be an integer, got {value!r}")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"field {name!r} must be numeric, got {value!r}")
    # json accepts NaN and Infinity; NaN fails every comparison
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"field {name!r} must be a finite number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"field {name!r} must be positive, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"field {name!r} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"field {name!r} must be <= {maximum}, got {value!r}")


def band_bounds(params: dict, n_modes: int) -> tuple:
    return params.get("k_min", 1), params.get("k_max", n_modes // 4)  # random_band's defaults


def _step_count(dt: float, t_end: float) -> int:
    """Steps of size dt > 0 to t_end; ConfigError unless t_end = n dt, n >= 1."""
    if not t_end >= dt:
        raise ConfigError("t_end must be at least dt")
    n_steps = t_end / dt
    if abs(n_steps - round(n_steps)) > 1e-9 * max(1.0, n_steps):
        raise ConfigError("t_end must be an integer multiple of dt")
    return int(round(n_steps))


def _param(default, key: str, **rule):
    """A numeric field with its config key ("noise.K": K of "noise") and rule."""
    return field(default=default, metadata={"key": key, "rule": rule})


@dataclass(frozen=True)
class SolverConfig:
    """A run's frozen parameters; ``__post_init__`` checks each, naming its key."""

    # the largest N whose N x N array of complex doubles an array can index
    n_modes: int = _param(32, "N", integer=True, minimum=8,
                          maximum=math.isqrt(np.iinfo(np.intp).max // 16))
    reynolds: float = _param(100.0, "Re", positive=True)
    epsilon: float = _param(0.1, "eps", minimum=0.0)
    dt: float = _param(1e-3, "dt", positive=True)
    t_end: float = _param(1.0, "T", positive=True)
    k_modes: int = _param(4, "noise.K", integer=True, minimum=1)
    spectrum_exponent: float = _param(3.0, "noise.r", positive=True)
    amplitude: float = _param(1.0, "noise.amp", minimum=0.0)
    seed: int = _param(0, "noise.seed", **_SEED)
    record_every: int = _param(10, "record_every", integer=True, minimum=1)
    initial_kind: str = "taylor_green"
    initial_params: dict = field(default_factory=dict)
    noise_mixing: bool = field(default=False, metadata={"key": "noise.mix"})

    def __post_init__(self):
        keyed = [f for f in dataclasses.fields(self) if "key" in f.metadata]
        for f in keyed:
            if "rule" in f.metadata:
                _check_number(getattr(self, f.name), f.metadata["key"], **f.metadata["rule"])
        n, mix = self.n_modes, self.noise_mixing
        if n % 2 != 0:
            raise ConfigError(f"field 'N' must be even, got {n}")
        if self.t_end / self.dt > sys.float_info.max:
            raise ConfigError(f"fields 'T' and 'dt' give more steps than a float holds: "
                              f"T = {self.t_end!r}, dt = {self.dt!r}")
        if self.epsilon > 1.0:
            raise ConfigError(f"field 'eps' must lie in [0, 1], got {self.epsilon}")
        if not isinstance(mix, bool):
            raise ConfigError(f"field 'noise.mix' must be a boolean, got {mix!r}")
        limit = max_modes(n, mix)
        if self.k_modes > limit:
            raise ConfigError(f"field 'noise.K' must be <= {limit} at N={n}"
                              f"{' with mix: true' if mix else ''}, got {self.k_modes}")
        # cast to the defaults' types only now: the messages above quote the input
        for f in keyed:
            object.__setattr__(self, f.name, type(f.default)(getattr(self, f.name)))
        n_steps = _step_count(self.dt, self.t_end)
        # the Brownian table holds n_steps x K increments of 8 bytes
        if n_steps * self.k_modes * 8 > np.iinfo(np.intp).max:
            raise ConfigError(f"fields 'T', 'dt' and 'noise.K' give {n_steps} steps of "
                              f"{self.k_modes} increments, more than an array can index")
        kind, params = self.initial_kind, self.initial_params
        rules = _INITIAL.get(kind) if isinstance(kind, str) else None
        if rules is None:
            raise ConfigError(f"unknown initial condition {kind!r}")
        if not isinstance(params, dict):
            raise ConfigError(f"field 'initial' must be a JSON object, got {params!r}")
        _take(params, rules, "initial.")
        for key, rule in rules.items():
            if rule is not str:
                if key in params:
                    _check_number(params[key], f"initial.{key}", **rule)
            elif key not in params:
                raise ConfigError(f"field 'initial.{key}' is required for kind {kind!r}")
            elif not isinstance(params[key], str):  # an int would be opened as a file descriptor
                raise ConfigError(f"field 'initial.{key}' must be a string, got {params[key]!r}")
        if kind == "random_band":
            k_min, k_max = band_bounds(params, n)
            # no n x n lattice: |k| grows with |ky| in each row kx >= 0 of the retained modes, so
            # only the |ky| next to where it reaches k_min (capped at n) can be in the band
            for start in range(0, min(n // 2, int(min(k_max, n)) + 2), 2**16):  # rows to k_max
                kx_sq = np.arange(start, min(start + 2**16, n // 2))[:, None] ** 2
                ky = np.ceil(np.sqrt(np.maximum(min(k_min, n) ** 2 - kx_sq, 0))) + [-1, 0, 1]
                k_sq = kx_sq + np.clip(ky, 0, n // 2 - 1).astype(np.int64) ** 2
                if (band_mask(k_sq, k_min, k_max) & (k_sq > 0)).any():  # the mean is projected out
                    break
            else:
                raise ConfigError(f"fields 'initial.k_min' and 'initial.k_max' give a band "
                                  f"[{k_min!r}, {k_max!r}] that holds no mode at N={n}")
        object.__setattr__(self, "initial_params", _FrozenParams(params))

    @property
    def n_steps(self) -> int:
        return _step_count(self.dt, self.t_end)


# {section: {key: SolverConfig field}} of the config file, "" the top level
_KEYS = {"": {}, "noise": {}}
for _f in dataclasses.fields(SolverConfig):
    if "key" in _f.metadata:
        _where, _, _key = _f.metadata["key"].rpartition(".")
        _KEYS[_where][_key] = _f.name


def _section(body: dict, name: str) -> dict:
    """The JSON object under ``name`` (empty when absent), taken out of ``body``."""
    value = body.pop(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"field {name!r} must be a JSON object, got {value!r}")
    return value


def _take(section: dict, known, where: str) -> dict:
    """``section``, once each of its keys is one of ``known``."""
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key '{where}{key}'")
    return section


def _check_epsilons(value) -> None:
    """study.epsilons: at least two distinct numbers in (0, 1]."""
    ok = (isinstance(value, list) and len(value) >= 2
          and all(isinstance(e, (int, float)) and not isinstance(e, bool) and 0 < e <= 1
                  for e in value)
          and len(set(value)) == len(value))
    if not ok:
        raise ConfigError("field 'study.epsilons' must be a list of at least two distinct "
                          f"numbers in (0, 1], got {value!r}")


def _env_seed(default: int) -> int:
    """The LU_FLOW_SEED override if set, else ``default``."""
    raw = os.environ.get("LU_FLOW_SEED")
    if raw is None:
        return default
    error = ConfigError(f"environment variable 'LU_FLOW_SEED' must be an integer in "
                        f"[0, {_SEED['maximum']}], got {raw!r}")
    try:
        seed = int(raw)
    except ValueError:
        raise error from None
    if not 0 <= seed <= _SEED["maximum"]:
        raise error
    return seed


def parse_config(text: str) -> tuple[SolverConfig, dict]:
    """Read a JSON config and return (SolverConfig, study parameters)."""
    try:
        body = json.loads(text)  # a fresh dict, which the sections are taken out of
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (RecursionError, ValueError, MemoryError) as exc:
        # nesting past the recursion limit, an integer of more digits than
        # int() converts, a document larger than memory
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise ConfigError("top-level config must be a JSON object")

    noise = _take(_section(body, "noise"), _KEYS["noise"], "noise.")
    initial = dict(_section(body, "initial"))
    kind = initial.pop("kind", SolverConfig.initial_kind)
    study = {**_STUDY_DEFAULTS, **_take(_section(body, "study"), _STUDY_DEFAULTS, "study.")}
    _take(body, _KEYS[""], "")

    values = {_KEYS[section][key]: value for section, given in (("", body), ("noise", noise))
              for key, value in given.items()}
    config = SolverConfig(**values, initial_kind=kind, initial_params=initial)
    _check_number(study["ensemble_size"], "study.ensemble_size", integer=True, minimum=1)
    _check_epsilons(study["epsilons"])
    # the converge study keeps each member's error at each epsilon in an array of doubles
    n_errors = len(study["epsilons"]) * study["ensemble_size"]
    if n_errors * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"field 'study.ensemble_size' gives {n_errors} member errors, more "
                          "than an array can index")
    # the override is checked there, after the file's own seed
    return dataclasses.replace(config, seed=_env_seed(config.seed)), study


def canonical_dict(config: SolverConfig, study: dict | None = None) -> dict:
    doc = {key: getattr(config, name) for key, name in _KEYS[""].items()}
    doc["initial"] = {"kind": config.initial_kind, **config.initial_params}
    doc["noise"] = {key: getattr(config, name) for key, name in _KEYS["noise"].items()}
    if study is not None:
        doc["study"] = dict(sorted(study.items()))
    return doc


def config_hash(config: SolverConfig, study: dict | None = None) -> str:
    """Stable hex digest of the canonicalized config."""
    payload = json.dumps(canonical_dict(config, study), sort_keys=True,
                         separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    config_hash: str
    tool_version: str = __version__
    seed: int = 0
    seed_overridden: bool = False
    created_at: str = ""
    outputs: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)

    def write(self, path) -> None:
        doc = dataclasses.asdict(self)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def make_manifest(config: SolverConfig, study: dict | None, outputs: list[str]) -> RunManifest:
    return RunManifest(
        config_hash=config_hash(config, study),
        seed=config.seed,
        seed_overridden="LU_FLOW_SEED" in os.environ,
        created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        outputs=list(outputs),
        config=canonical_dict(config, study),
        environment=software_environment(),
    )


def software_environment() -> dict:
    """Interpreter and numpy versions and the platform, for the manifest."""
    uname = platform.uname()  # platform.platform() would also scan the interpreter for libc
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": f"{uname.system}-{uname.release}-{uname.machine}"}
