"""Experiment configuration: one JSON file drives generate/embed/evaluate.

Exactly one data source (inline SBM parameters or a snapshot file), one
method tag, and a task table. Validation errors name the offending field so
the CLI can exit with a config failure rather than a runtime one.
"""

import json
from dataclasses import dataclass, field

from .ae import AeConfig
from .sbm import SbmParams

SVD_METHODS = ("optsvd", "incsvd", "rerunsvd")
AE_METHODS = ("ae_static", "aealign", "dyngem", "d2v_ae")
METHODS = SVD_METHODS + AE_METHODS
TASKS = ("reconstruction", "static_lp", "temporal_lp", "classification",
         "migration_stat", "projection")

DEFAULT_K_GRID = [10, 100, 1000]


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field = field_name


def _require(raw: dict, key: str, kind, where: str):
    if key not in raw:
        raise ConfigError(f"{where}.{key}" if where else key, "missing")
    value = raw[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    bad = not isinstance(value, bool) if kind is bool \
        else not isinstance(value, kind) or isinstance(value, bool)
    if bad:
        raise ConfigError(f"{where}.{key}" if where else key,
                          f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _optional(raw: dict, key: str, kind, default, where: str):
    if key not in raw or raw[key] is None:
        return default
    return _require(raw, key, kind, where)


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


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataSource
    method: str
    seed: int = 0
    outdir: str = "."
    d: int = 128
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

    def resolved(self) -> dict:
        """Fully resolved, canonical dict (defaults filled in).

        Excludes outdir so the digest and manifest are location-independent.
        """
        if self.data.sbm is not None:
            p = self.data.sbm
            data = {"sbm": {
                "node_num": p.node_num, "community_num": p.community_num,
                "length": p.length, "diminish_community": p.diminish_community,
                "node_change_num": p.node_change_num,
                "p_in": p.p_in, "p_out": p.p_out, "seed": p.seed,
            }}
        else:
            data = {"snapshots": self.data.snapshots_path,
                    "labels": self.data.labels_path,
                    "migrations": self.data.migrations_path}
        method = {"name": self.method, "d": self.d}
        if self.method == "rerunsvd":
            method["theta"] = self.theta
        if self.method in AE_METHODS:
            a = self.ae
            method.update({
                "beta": a.beta, "nu1": a.nu1, "nu2": a.nu2,
                "enc_units": list(a.enc_units), "dec_units": list(a.dec_units),
                "n_iter": a.n_iter, "xeta": a.xeta, "n_batch": a.n_batch,
            })
        if self.method == "d2v_ae":
            method["lookback"] = self.ae.lookback
        return {
            "seed": self.seed,
            "data": data,
            "method": method,
            "tasks": {k: dict(sorted(v.items())) for k, v in sorted(self.tasks.items())},
        }


def _parse_sbm(raw: dict, seed: int) -> SbmParams:
    where = "data.sbm"
    kwargs = dict(
        node_num=_require(raw, "node_num", int, where),
        community_num=_require(raw, "community_num", int, where),
        length=_require(raw, "length", int, where),
        diminish_community=_optional(raw, "diminish_community", int, 1, where),
        node_change_num=_require(raw, "node_change_num", int, where),
        p_in=_optional(raw, "p_in", float, 0.1, where),
        p_out=_optional(raw, "p_out", float, 0.01, where),
        seed=_optional(raw, "seed", int, seed, where),
    )
    try:
        return SbmParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from exc


def _parse_tasks(raw: dict) -> dict:
    tasks = {}
    for name, params in raw.items():
        if name not in TASKS:
            raise ConfigError(f"tasks.{name}", f"unknown task; expected one of {', '.join(TASKS)}")
        if params is None:
            params = {}
        if not isinstance(params, dict):
            raise ConfigError(f"tasks.{name}", "expected an object of task parameters")
        where = f"tasks.{name}"
        spec = {"t": _optional(params, "t", int, -1, where)}
        if name in ("reconstruction", "static_lp", "temporal_lp"):
            grid = _optional(params, "k_grid", list, list(DEFAULT_K_GRID), where)
            if not grid or not all(isinstance(k, int) and not isinstance(k, bool) and k >= 1 for k in grid):
                raise ConfigError(f"{where}.k_grid", "expected a non-empty list of ints >= 1")
            spec["k_grid"] = sorted(set(grid))
        if name == "static_lp":
            frac = _optional(params, "hide_fraction", float, 0.2, where)
            if not 0 < frac < 1:
                raise ConfigError(f"{where}.hide_fraction", "must be in (0, 1)")
            spec["hide_fraction"] = frac
        if name == "temporal_lp":
            mode = _optional(params, "mode", str, "all", where)
            if mode not in ("all", "new"):
                raise ConfigError(f"{where}.mode", "expected 'all' or 'new'")
            spec["mode"] = mode
        if name == "classification":
            frac = _optional(params, "train_frac", float, 0.5, where)
            if not 0 < frac < 1:
                raise ConfigError(f"{where}.train_frac", "must be in (0, 1)")
            spec["train_frac"] = frac
        if name == "migration_stat":
            # false: migrants of step t, embeddings at t (arrival view);
            # true: migrants of step t+1, embeddings at t (anticipation view)
            spec["anticipate"] = _optional(params, "anticipate", bool, False, where)
        for key in params:
            if key not in spec:
                raise ConfigError(f"{where}.{key}", "unknown parameter")
        tasks[name] = spec
    return tasks


def from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "top-level JSON value must be an object")
    known = {"seed", "outdir", "data", "method", "tasks"}
    for key in raw:
        if key not in known:
            raise ConfigError(key, "unknown field")
    seed = _optional(raw, "seed", int, 0, "")
    outdir = _optional(raw, "outdir", str, ".", "")

    data_raw = _require(raw, "data", dict, "")
    sbm = None
    snapshots = labels = migrations = None
    if "sbm" in data_raw and "snapshots" in data_raw:
        raise ConfigError("data", "exactly one of 'sbm' or 'snapshots' required")
    if "sbm" in data_raw:
        sbm = _parse_sbm(_require(data_raw, "sbm", dict, "data"), seed)
    elif "snapshots" in data_raw:
        snapshots = _require(data_raw, "snapshots", str, "data")
        labels = _optional(data_raw, "labels", str, None, "data")
        migrations = _optional(data_raw, "migrations", str, None, "data")
    else:
        raise ConfigError("data", "exactly one of 'sbm' or 'snapshots' required")
    data = DataSource(sbm=sbm, snapshots_path=snapshots, labels_path=labels,
                      migrations_path=migrations)

    method_raw = _require(raw, "method", dict, "")
    name = _require(method_raw, "name", str, "method")
    if name not in METHODS:
        raise ConfigError("method.name", f"unknown method {name!r}; "
                          f"expected one of {', '.join(METHODS)}")
    d = _optional(method_raw, "d", int, 128, "method")
    if d < 1:
        raise ConfigError("method.d", "must be >= 1")
    theta_raw = method_raw.get("theta")
    if theta_raw is None:
        theta = 0.1
    elif isinstance(theta_raw, str) and theta_raw in ("inf", "Infinity"):
        theta = float("inf")
    elif isinstance(theta_raw, (int, float)) and not isinstance(theta_raw, bool):
        theta = float(theta_raw)
    else:
        raise ConfigError("method.theta", "expected a number or 'inf'")
    if theta <= 0:
        raise ConfigError("method.theta", "must be > 0")

    ae_kwargs = dict(d=d, seed=seed)
    for key, kind in (("beta", float), ("nu1", float), ("nu2", float),
                      ("n_iter", int), ("xeta", float), ("n_batch", int),
                      ("lookback", int)):
        if key in method_raw and method_raw[key] is not None:
            ae_kwargs[key] = _require(method_raw, key, kind, "method")
    for key in ("enc_units", "dec_units"):
        if key in method_raw and method_raw[key] is not None:
            units = _require(method_raw, key, list, "method")
            if not units or not all(isinstance(u, int) and not isinstance(u, bool) and u >= 1 for u in units):
                raise ConfigError(f"method.{key}", "expected a non-empty list of ints >= 1")
            ae_kwargs[key] = tuple(units)
    try:
        ae = AeConfig(**ae_kwargs)
    except ValueError as exc:
        raise ConfigError("method", str(exc)) from exc
    known_method = {"name", "d", "theta", "beta", "nu1", "nu2", "n_iter", "xeta",
                    "n_batch", "lookback", "enc_units", "dec_units"}
    for key in method_raw:
        if key not in known_method:
            raise ConfigError(f"method.{key}", "unknown field")

    tasks = _parse_tasks(_optional(raw, "tasks", dict, {}, ""))
    return ExperimentConfig(data=data, method=name, seed=seed, outdir=outdir,
                            d=d, theta=theta, ae=ae, tasks=tasks)


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
