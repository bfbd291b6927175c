"""End-to-end experiment pipeline: data, embeddings, task reports, manifest.

METHOD_TABLE, one record per method, is the only place that reads the method
name. SVD methods score pair (u, v) as Y_src[u] . Y_tgt[v], static AE methods
by the decoded adjacency rows, and d2v_ae by the decoded prediction of the
window ending at t-1, so it needs t >= lookback.

Every task reads the method's one run. All methods but d2v_ae are causal
folds, whose state at t has seen nothing after t: temporal link prediction
scores snapshot t from the run, and static link prediction takes one step
from the run's state at t-1 onto the train split of G_t (at t = 0, a fresh
start). For the SVD folds that step is usually a batch step: the hidden
edges touch almost every row, so the update would take the epoch's width to
n and is the batch SVD of the train split. d2v_ae trains on windows from the whole sequence, so it alone
retrains on the prefix ending at t for both tasks.

A run keeps only the per-step state its configured tasks read
(_kept_steps): the SVD folds one factor state, the per-snapshot AE families
the models of those steps plus the last one, which model.txt holds.

Labels and migration records read from files are checked against the
sequence and against each other. A run first deletes the outputs an earlier
run left in its outdir. The manifest records the resolved config, package
versions, and a sha256 digest per output file; it contains no timestamps,
so identical runs produce identical bytes.
"""

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, svd_embed
from .ae import aealign_series, d2v_ae_series, dyngem_series, fit_snapshot, reconstruct, \
    save_mlp_params, static_ae_series, window_inputs
from .config import ExperimentConfig
from .evaluation import EvalError, export_projection, migration_proximity_stat, \
    node_classification, reconstruction_eval, save_report, static_lp_eval, \
    static_lp_split, temporal_lp_eval, EvalReport
from .graphs import GraphSnapshot, SnapshotSequence, dense_adjacency, load_snapshots, \
    save_snapshots
from .rng import Rng
from .sbm import diminish_series, load_labels, load_migrations, save_labels, \
    save_migrations
from .series import save_embedding_series
from .svd_embed import optimal_svd_series, rerun_svd_series, rerun_svd_step, \
    save_restart_log


# Names of the files a run writes, other than the generated data.
OWNED_OUTPUT = re.compile(
    r"emb_t\d+\.(src|tgt)|report_[a-z_]+\.json|projection_t\d+\.txt"
    r"|restart_log\.txt|model\.txt|manifest\.json")
# Names of the data files a run generates from SBM parameters.
DATA_FILES = ("snapshots.txt", "labels.txt", "migrations.txt")


class PipelineError(RuntimeError):
    pass


def config_digest(cfg: ExperimentConfig) -> str:
    canon = json.dumps(cfg.resolved(), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def prepare_data(cfg: ExperimentConfig, outdir: Path | None = None, files: dict | None = None):
    """Generate or load the snapshot sequence plus labels/migrations.

    Generated data is written to the output directory when one is given.
    Returns (sequence, labels or None, migrations or None).
    """
    if cfg.data.sbm is not None:
        series = diminish_series(cfg.data.sbm)
        if outdir is not None:
            write_data(series, outdir, files)
        return series.sequence, series.labels, series.migrations
    seq = load_snapshots(cfg.data.snapshots_path)
    labels = load_labels(cfg.data.labels_path) if cfg.data.labels_path else None
    migrations = (load_migrations(cfg.data.migrations_path, len(seq))
                  if cfg.data.migrations_path else None)
    _check_against_sequence(seq, labels, migrations)
    return seq, labels, migrations


def write_data(series, outdir: Path, files: dict | None = None) -> list:
    """Write a generated series' snapshots, labels and migrations as
    DATA_FILES in outdir; returns their paths."""
    writers = (lambda p: save_snapshots(series.sequence, p),
               lambda p: save_labels(series, p), lambda p: save_migrations(series, p))
    return [_write(files, outdir, name, w) for name, w in zip(DATA_FILES, writers)]


def _check_against_sequence(seq: SnapshotSequence, labels, migrations) -> None:
    """Reject labels and migration records that do not fit seq, or each other."""
    if labels is not None:
        if len(labels) != len(seq):
            raise PipelineError(f"labels cover {len(labels)} snapshots, sequence has {len(seq)}")
        if len(labels[0]) != seq.n:
            raise PipelineError(f"labels cover {len(labels[0])} nodes, sequence has {seq.n}")
    for t, step in enumerate(migrations or ()):
        for node, old, new in step:
            where = f"migration `{t} {node} {old} {new}`"
            if t == 0:
                raise PipelineError(f"{where}: a migration at t=0 has no previous snapshot")
            if not 0 <= node < seq.n:
                raise PipelineError(f"{where}: node {node} outside [0,{seq.n})")
            if labels is None:
                continue
            for s, want in ((t - 1, old), (t, new)):
                if labels[s][node] != want:
                    raise PipelineError(
                        f"{where}: node {node} has community {labels[s][node]} at t={s}")


@dataclass(frozen=True)
class Method:
    """scores, refit and forecast read the (series, extras) embed returned
    and give n x n scores: of snapshot t; of g in place of snapshot t, from
    the run's state at t - 1; of snapshot t + 1, from snapshots through t."""

    embed: Callable  # (cfg, seq)
    scores: Callable  # (cfg, seq, series, extras, t)
    refit: Callable  # (cfg, seq, series, extras, t, g)
    forecast: Callable  # (cfg, seq, series, extras, t)
    first_t: Callable = lambda cfg: 0  # the first snapshot it can score


def _svd_scores(cfg, seq, series, extras, t):
    return series.src_at(t) @ series.tgt_at(t).T


def _optsvd_refit(cfg, seq, series, extras, t, g):
    y_src, y_tgt, _ = svd_embed.optimal_svd_embed(g, cfg.d, t)
    return y_src @ y_tgt.T


def _kept_steps(cfg, seq, tasks) -> set:
    """The steps whose state the configured tasks among `tasks` read from
    the run: the t of reconstruction and temporal LP, and static LP's t - 1,
    the step its refit branches from. An out-of-range t is left for the task
    to reject."""
    last = len(seq) - 1
    # task -> (the highest t it may resolve to, how far before t it reads)
    reads = {"reconstruction": (last, 0), "temporal_lp": (last - 1, 0), "static_lp": (last, 1)}
    return {_from_end(cfg.tasks[name]["t"], reads[name][0]) - reads[name][1]
            for name in tasks if name in cfg.tasks}


def _svd_fold_record(theta) -> Method:
    """The incremental SVD fold; theta(cfg) is its restart tolerance. The run
    keeps one factor state, the one static LP branches from."""
    def embed(cfg, seq):
        keep = min(_kept_steps(cfg, seq, ("static_lp",)), default=None)
        series, log, state = rerun_svd_series(seq, cfg.d, theta(cfg), keep=keep)
        return series, {"restart_log": log, "state": state}

    def refit(cfg, seq, series, extras, t, g):
        if t == 0:
            return _optsvd_refit(cfg, seq, series, extras, t, g)
        state = extras["state"]
        if state is None or state.t_cur != t - 1:
            raise PipelineError(f"static_lp: the run kept no factor state for t={t - 1}")
        state, _ = rerun_svd_step(state, g, theta(cfg))
        y_src, y_tgt = state.embedding()
        return y_src @ y_tgt.T

    return Method(embed=embed, scores=_svd_scores, refit=refit, forecast=_svd_scores)


def _kept_model(extras, t: int):
    model = extras["models"][t]
    if model is None:
        raise PipelineError(f"the run kept no model for t={t}")
    return model


def _ae_scores(cfg, seq, series, extras, t):
    return reconstruct(_kept_model(extras, t), dense_adjacency(seq[t]))


def _ae_record(series_fn, warm: bool = False) -> Method:
    """A static AE family; with warm, a refit starts from the run's model of
    t - 1 (dynGEM), else from fresh weights. The run keeps the models its
    tasks read and the last one, which model.txt holds."""
    reads = ("reconstruction", "temporal_lp") + (("static_lp",) if warm else ())

    def embed(cfg, seq):
        series, models = series_fn(seq, cfg.ae, keep=_kept_steps(cfg, seq, reads))
        return series, {"models": models}

    def refit(cfg, seq, series, extras, t, g):
        adj = dense_adjacency(g)
        init = _kept_model(extras, t - 1) if warm and t else None
        return reconstruct(fit_snapshot(adj, cfg.ae, t, init), adj)

    return Method(embed=embed, scores=_ae_scores, refit=refit, forecast=_ae_scores)


def _d2v_embed(cfg, seq):
    series, result = d2v_ae_series(seq, cfg.ae)
    return series, {"models": [result.params]}


def _d2v_scores(cfg, seq, series, extras, t):
    return reconstruct(extras["models"][-1], window_inputs(seq, t - 1, cfg.ae.lookback))


def _d2v_refit(cfg, seq, series, extras, t, g):
    # the run's model trained on windows after t, so retrain on the prefix
    prefix = _prefix(seq, t, g)
    return _d2v_scores(cfg, prefix, *embed_series(cfg, prefix), t)


def _d2v_forecast(cfg, seq, series, extras, t):
    prefix = _prefix(seq, t)  # scores of t + 1 read the window ending at t
    return _d2v_scores(cfg, prefix, *embed_series(cfg, prefix), t + 1)


# rerun_svd_series, reconstruct and dense_adjacency are called by name on
# this module, and optimal_svd_embed on svd_embed, so a wrapper set where the
# library's own callers look them up (bench/tracing.py) sees every call.
METHOD_TABLE = {
    "optsvd": Method(embed=lambda cfg, seq: (optimal_svd_series(seq, cfg.d), {}),
                     scores=_svd_scores, refit=_optsvd_refit, forecast=_svd_scores),
    "incsvd": _svd_fold_record(lambda cfg: math.inf),
    "rerunsvd": _svd_fold_record(lambda cfg: cfg.theta),
    "ae_static": _ae_record(static_ae_series),
    "aealign": _ae_record(aealign_series),
    "dyngem": _ae_record(dyngem_series, warm=True),
    "d2v_ae": Method(embed=_d2v_embed, scores=_d2v_scores, refit=_d2v_refit,
                     forecast=_d2v_forecast, first_t=lambda cfg: cfg.ae.lookback),
}


def embed_series(cfg: ExperimentConfig, seq: SnapshotSequence):
    """Run the configured method; returns (series, extras). extras may hold
    'restart_log' and 'state', the factor state static LP branches from
    (incsvd/rerunsvd), or 'models' (d2v_ae's one model, or per snapshot of
    the other AE families the model its tasks read, the last one, and None
    elsewhere)."""
    return METHOD_TABLE[cfg.method].embed(cfg, seq)


def _from_end(spec_t: int, hi: int) -> int:
    """A config t, negative counting back from hi + 1."""
    return hi + 1 + spec_t if spec_t < 0 else spec_t


def _resolve_t(spec_t: int, lo: int, hi: int, what: str) -> int:
    """Map a config t (negative = from the end) into [lo, hi]."""
    t = _from_end(spec_t, hi)
    if not lo <= t <= hi:
        raise PipelineError(f"{what}: t={spec_t} resolves to {t}, outside [{lo}, {hi}]")
    return t


def _task_t(cfg: ExperimentConfig, spec: dict, what: str, last: int) -> int:
    return _resolve_t(spec["t"], METHOD_TABLE[cfg.method].first_t(cfg), last, what)


def _prefix(seq: SnapshotSequence, t: int, last: GraphSnapshot | None = None) -> SnapshotSequence:
    """Snapshots 0..t, with last in place of snapshot t when given."""
    snaps = [seq[i] for i in range(t)] + [seq[t] if last is None else last]
    return SnapshotSequence(tuple(snaps))


def _eval_meta(cfg: ExperimentConfig) -> dict:
    return {"method": cfg.method, "seed": cfg.seed, "config_digest": config_digest(cfg)}


def task_reconstruction(cfg, seq, series, extras, spec) -> EvalReport:
    t = _task_t(cfg, spec, "reconstruction", len(seq) - 1)
    scores = METHOD_TABLE[cfg.method].scores(cfg, seq, series, extras, t)
    return reconstruction_eval(scores, seq[t], spec["k_grid"], **_eval_meta(cfg))


def task_static_lp(cfg, seq, series, extras, spec) -> EvalReport:
    t = _task_t(cfg, spec, "static_lp", len(seq) - 1)
    train, hidden = static_lp_split(seq[t], spec["hide_fraction"], Rng(cfg.seed + 101))
    scores = METHOD_TABLE[cfg.method].refit(cfg, seq, series, extras, t, train)
    return static_lp_eval(scores, train, hidden, spec["k_grid"], **_eval_meta(cfg))


def task_temporal_lp(cfg, seq, series, extras, spec) -> EvalReport:
    t = _task_t(cfg, spec, "temporal_lp", len(seq) - 2)
    scores = METHOD_TABLE[cfg.method].forecast(cfg, seq, series, extras, t)
    return temporal_lp_eval(scores, seq, t, spec["k_grid"], mode=spec["mode"],
                            **_eval_meta(cfg))


def task_classification(cfg, seq, series, labels, spec) -> EvalReport:
    if labels is None:
        raise PipelineError("classification needs labels (generate SBM data or set data.labels)")
    t = _resolve_t(spec["t"], series.t_start, len(seq) - 1, "classification")
    micro, macro = node_classification(series.src_at(t), labels[t],
                                       spec["train_frac"], seed=cfg.seed)
    report = EvalReport(task="classification", **_eval_meta(cfg))
    report.micro_f1, report.macro_f1 = micro, macro
    return report


def task_migration_stat(cfg, seq, series, labels, migrations, spec) -> EvalReport:
    if labels is None or migrations is None:
        raise PipelineError("migration_stat needs labels and migrations")
    anticipate = spec.get("anticipate", False)
    if anticipate:
        # embeddings at t against the nodes that migrate entering t+1
        t = _resolve_t(spec["t"], series.t_start, len(seq) - 2, "migration_stat")
        records = migrations[t + 1]
    else:
        t = _resolve_t(spec["t"], max(series.t_start, 1), len(seq) - 1, "migration_stat")
        records = migrations[t]
    stat = migration_proximity_stat(series, labels[t], records, t)
    report = EvalReport(task="migration_stat", **_eval_meta(cfg))
    report.mode = "anticipate" if anticipate else "arrival"
    report.stat = stat
    return report


def task_projection(cfg, seq, series, labels, migrations, spec, outdir: Path, files: dict):
    if labels is None:
        raise PipelineError("projection needs labels (generate SBM data or set data.labels)")
    t = _resolve_t(spec["t"], series.t_start, len(seq) - 1, "projection")
    migrated = {node for node, _, _ in migrations[t]} if migrations else set()
    name = f"projection_t{t}.txt"
    _write(files, outdir, name, lambda p: export_projection(series, t, labels[t], migrated, p))
    return name


def _clear_outputs(outdir: Path, cfg: ExperimentConfig) -> None:
    """Delete what an earlier run left in outdir, so that no file of it is
    read as part of this run. A data file goes only when that run's manifest
    lists it with its digest, so it was generated there, and cfg does not
    read it."""
    data = cfg.data
    inputs = {Path(p).resolve() for p in (data.snapshots_path, data.labels_path,
                                          data.migrations_path) if p is not None}
    try:  # name -> sha256 of what the earlier run wrote
        generated = dict(json.loads((outdir / "manifest.json").read_bytes())["files"])
    except (OSError, ValueError, KeyError, TypeError):
        generated = {}
    for path in outdir.iterdir():
        if not path.is_file():
            continue
        if OWNED_OUTPUT.fullmatch(path.name) or (
                path.name in DATA_FILES and path.name in generated
                and path.resolve() not in inputs
                and _sha256(path) == generated[path.name]):
            path.unlink()


def _write(files: dict | None, outdir: Path, name: str, writer) -> Path:
    path = outdir / name
    writer(path)
    if files is not None:
        files[name] = _sha256(path)
    return path


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def run_experiment(cfg: ExperimentConfig, stage: str = "run") -> dict:
    """Execute the pipeline; stage is one of embed/evaluate/project/run.

    embed writes data + embeddings; evaluate adds non-projection reports;
    project adds only projections; run does everything plus manifest.json.
    Returns {"outdir", "files", "reports"}.
    """
    if stage not in ("embed", "evaluate", "project", "run"):
        raise PipelineError(f"unknown stage {stage!r}")
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _clear_outputs(outdir, cfg)
    files: dict = {}

    seq, labels, migrations = prepare_data(cfg, outdir, files)
    series, extras = embed_series(cfg, seq)
    for path in save_embedding_series(series, outdir, prefix="emb"):
        files[Path(path).name] = _sha256(Path(path))
    if "restart_log" in extras:
        _write(files, outdir, "restart_log.txt",
               lambda p: save_restart_log(extras["restart_log"], p))
    if "models" in extras:
        _write(files, outdir, "model.txt",
               lambda p: save_mlp_params(extras["models"][-1], p))

    reports = {}
    want_eval = stage in ("evaluate", "run")
    want_projection = stage in ("project", "run")
    for name in sorted(cfg.tasks):
        spec = cfg.tasks[name]
        if name == "projection":
            if want_projection:
                task_projection(cfg, seq, series, labels, migrations, spec, outdir, files)
            continue
        if not want_eval:
            continue
        if name == "reconstruction":
            report = task_reconstruction(cfg, seq, series, extras, spec)
        elif name == "static_lp":
            report = task_static_lp(cfg, seq, series, extras, spec)
        elif name == "temporal_lp":
            report = task_temporal_lp(cfg, seq, series, extras, spec)
        elif name == "classification":
            report = task_classification(cfg, seq, series, labels, spec)
        else:
            report = task_migration_stat(cfg, seq, series, labels, migrations, spec)
        reports[name] = report
        _write(files, outdir, f"report_{name}.json", lambda p, r=report: save_report(r, p))

    if stage == "run":
        manifest = {
            "config": cfg.resolved(),
            "files": dict(sorted(files.items())),
            "versions": {"dynembed": __version__, "numpy": np.__version__},
        }
        with open(outdir / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return {"outdir": str(outdir), "files": files, "reports": reports}
