"""Experiment configuration: one JSON file drives generate/embed/evaluate.

Exactly one data source (inline SBM parameters or a snapshot file), one
method tag, and a task table. Each section has one field table (TOP_FIELDS,
DATA_FIELDS, SBM_FIELDS, METHOD_FIELDS, and TASKS per task) that declares a
field's check and default once; _read fills in the default of an absent or
null field and rejects a key its table does not name. Validation errors
name the offending field so the CLI can exit with a config failure rather
than a runtime one.
"""

import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

from .ae import AeConfig
from .sbm import SbmParams

# The AeConfig fields a config sets, all but d and seed (the config's own);
# lookback is read by d2v_ae alone.
_AE_CONFIG_FIELDS = [f for f in fields(AeConfig) if f.name not in ("d", "seed")]
_AE_FIELDS = tuple(f.name for f in _AE_CONFIG_FIELDS if f.name != "lookback")
# method -> the method fields it reads besides d, the ones resolved() records
METHODS = {"optsvd": (), "incsvd": (), "rerunsvd": ("theta",),
           "ae_static": _AE_FIELDS, "aealign": _AE_FIELDS, "dyngem": _AE_FIELDS,
           "d2v_ae": _AE_FIELDS + ("lookback",)}

DEFAULT_K_GRID = [10, 100, 1000]
REQUIRED = MISSING  # the default of a field that has none, as in a dataclass


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field = field_name


def _kind(kind, test=None, rule: str = ""):
    """The check that a value is a `kind` and, if given, passes test (else
    fails with rule). An int passes as a float, and only a bool as a bool."""
    def check(value):
        if kind is float and type(value) is int:
            value = float(value)
        if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
            raise ValueError(f"expected {kind.__name__}, got {type(value).__name__}")
        if test is not None and not test(value):
            raise ValueError(rule)
        return value
    return check


def _positive_ints(normal):
    """The check of a non-empty list of ints >= 1, which it hands to normal."""
    def check(value):
        if not isinstance(value, (list, tuple)) or not value or not all(
                type(v) is int and v >= 1 for v in value):
            raise ValueError("expected a non-empty list of ints >= 1")
        return normal(value)
    return check


def _theta(value) -> float:
    if value in ("inf", "Infinity"):
        return float("inf")
    if type(value) not in (int, float):
        raise ValueError("expected a number or 'inf'")
    if not value > 0:
        raise ValueError("must be > 0")
    return float(value)


_FRACTION = _kind(float, lambda v: 0 < v < 1, "must be in (0, 1)")
_T = {"t": (_kind(int), -1)}  # negative counts back from the last snapshot
_K_GRID = {"k_grid": (_positive_ints(lambda k: sorted(set(k))), DEFAULT_K_GRID)}
# task -> its fields: name -> (check, default)
TASKS = {
    "reconstruction": {**_T, **_K_GRID},
    "static_lp": {**_T, **_K_GRID, "hide_fraction": (_FRACTION, 0.2)},
    "temporal_lp": {**_T, **_K_GRID, "mode": (
        _kind(str, lambda v: v in ("all", "new"), "expected 'all' or 'new'"), "all")},
    "classification": {**_T, "train_frac": (_FRACTION, 0.5)},
    # false: migrants of step t, embeddings at t (arrival view);
    # true: migrants of step t+1, embeddings at t (anticipation view)
    "migration_stat": {**_T, "anticipate": (_kind(bool), False)},
    "projection": _T,
}


def _read(raw, fields: dict, where: str, **defaults) -> dict:
    """The section `where` of a config, by its field table `fields` (name ->
    (check, default)): a field that is absent or null takes its default (a
    keyword here replaces the table's), and every field is checked. A key
    the table does not name is an error."""
    if not isinstance(raw, dict):
        raise ConfigError(where or "<root>", "expected an object")
    prefix = f"{where}." if where else ""
    for key in raw:
        if key not in fields:
            raise ConfigError(prefix + key, "unknown field")
    section = {}
    for key, (check, default) in fields.items():
        value = raw.get(key)
        if value is None:
            value = defaults.get(key, default)
        if value is REQUIRED:
            raise ConfigError(prefix + key, "missing")
        try:
            section[key] = None if value is None else check(value)
        except ValueError as exc:
            raise ConfigError(prefix + key, str(exc)) from exc
    return section


def _build(cls, where: str, fields: dict):
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


@dataclass(frozen=True)
class DataSource:
    """Either inline SBM parameters or paths to snapshot/label files."""

    sbm: SbmParams | None = None
    snapshots_path: str | None = None
    labels_path: str | None = None
    migrations_path: str | None = None

    def __post_init__(self):
        if (self.sbm is None) == (self.snapshots_path is None):
            raise ConfigError("data", "exactly one of 'sbm' or 'snapshots' required")
        if self.sbm is not None and (self.labels_path, self.migrations_path) != (None, None):
            raise ConfigError("data", "'labels' and 'migrations' go with 'snapshots'; "
                              "SBM data makes its own")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment. `d` and `seed` are its only embedding dimension and seed:
    an `ae` passed in has its `d` and `seed` replaced by them."""

    data: DataSource
    method: str
    seed: int = 0
    outdir: str = "."
    d: int = AeConfig.d
    theta: float = 0.1
    ae: AeConfig = field(default_factory=AeConfig)
    tasks: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError("method.name", f"unknown method {self.method!r}; "
                              f"expected one of {', '.join(METHODS)}")
        for name in self.tasks:
            if name not in TASKS:
                raise ConfigError(f"tasks.{name}", f"unknown task; expected one of {', '.join(TASKS)}")
        object.__setattr__(self, "ae", replace(self.ae, d=self.d, seed=self.seed))

    def resolved(self) -> dict:
        """Fully resolved, canonical dict (defaults filled in).

        Excludes outdir so the digest and manifest are location-independent.
        """
        if self.data.sbm is not None:
            data = {"sbm": asdict(self.data.sbm)}
        else:
            data = {"snapshots": self.data.snapshots_path,
                    "labels": self.data.labels_path,
                    "migrations": self.data.migrations_path}
        values = {"theta": self.theta, **asdict(self.ae)}
        method = {"name": self.method, "d": self.d}
        for key in METHODS[self.method]:
            method[key] = list(values[key]) if isinstance(values[key], tuple) else values[key]
        return {
            "seed": self.seed,
            "data": data,
            "method": method,
            "tasks": {k: dict(sorted(v.items())) for k, v in sorted(self.tasks.items())},
        }


# The field tables of the other sections: name -> (check, default).
TOP_FIELDS = {
    "seed": (_kind(int), ExperimentConfig.seed),
    "outdir": (_kind(str), ExperimentConfig.outdir),
    "data": (_kind(dict), REQUIRED),
    "method": (_kind(dict), REQUIRED),
    "tasks": (_kind(dict), {}),
}
DATA_FIELDS = {"sbm": (_kind(dict), None), "snapshots": (_kind(str), None),
               "labels": (_kind(str), None), "migrations": (_kind(str), None)}
# data.sbm is SbmParams field for field, with its defaults
SBM_FIELDS = {f.name: (_kind(f.type), f.default) for f in fields(SbmParams)}
METHOD_FIELDS = {
    "name": (_kind(str), REQUIRED),
    "d": (_kind(int, lambda v: v >= 1, "must be >= 1"), ExperimentConfig.d),
    "theta": (_theta, ExperimentConfig.theta),
    # the AE fields are AeConfig's, with its defaults
    **{f.name: (_positive_ints(tuple) if f.type is tuple else _kind(f.type), f.default)
       for f in _AE_CONFIG_FIELDS},
}


def from_dict(raw: dict) -> ExperimentConfig:
    top = _read(raw, TOP_FIELDS, "")
    data = _read(top["data"], DATA_FIELDS, "data")
    sbm = data["sbm"]
    if sbm is not None:
        # the SBM seed defaults to the config's
        sbm = _build(SbmParams, "data.sbm", _read(sbm, SBM_FIELDS, "data.sbm", seed=top["seed"]))
    method = _read(top["method"], METHOD_FIELDS, "method")
    name, d, theta = method.pop("name"), method.pop("d"), method.pop("theta")
    # an unknown task is ExperimentConfig's to reject, so its spec goes unread
    tasks = {task: _read({} if spec is None else spec, TASKS[task], f"tasks.{task}")
             if task in TASKS else spec for task, spec in top["tasks"].items()}
    return ExperimentConfig(
        data=DataSource(sbm=sbm, snapshots_path=data["snapshots"],
                        labels_path=data["labels"], migrations_path=data["migrations"]),
        method=name, seed=top["seed"], outdir=top["outdir"], d=d, theta=theta,
        ae=_build(AeConfig, "method", method), tasks=tasks)


def read_raw(path) -> dict:
    """The JSON object in the config file at path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "top-level JSON value must be an object")
    return raw


def from_file(path) -> ExperimentConfig:
    return from_dict(read_raw(path))


def apply_overrides(raw: dict, overrides: list) -> dict:
    """Apply `key.path=value` strings onto a raw config dict.

    Values parse as JSON when possible, else as plain strings.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError("<override>", f"expected key=value, got {item!r}")
        key, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(key, "override path crosses a non-object value")
        node[parts[-1]] = value
    return raw
