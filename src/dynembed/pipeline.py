"""End-to-end experiment pipeline: data, embeddings, task reports, manifest.

METHOD_TABLE holds, one record per method, what the pipeline does by method;
config.METHODS holds the method fields each method reads. SVD methods score
pair (u, v) as Y_src[u] . Y_tgt[v], static AE methods by the decoded
adjacency rows, and d2v_ae by the decoded prediction of the window ending at
t-1, so it needs t >= lookback.

Every task, task_<name>(cfg, run, spec), reads the method's one Run. All
methods but d2v_ae are causal folds, whose state at t has seen nothing after
t: temporal link prediction scores snapshot t from the run, and static link
prediction takes one step from the run's state at t-1 onto the train split
of G_t (at t = 0, a fresh start). For the SVD folds that step is usually a
batch step: the hidden edges touch almost every row, so the update would
take the epoch's width to n and is the batch SVD of the train split. d2v_ae
trains on windows from the whole sequence, so it alone retrains on the
prefix ending at t for both tasks.

A run keeps only the per-step state its configured tasks read
(_kept_steps): the SVD folds one factor state. The per-snapshot AE families
run through one fold (ae._snapshot_fold), which keeps no model; the
pipeline's per-step callback keeps the n x n scores of the snapshots that
reconstruction and temporal LP read, taken as each model is trained, a copy
of the model dynGEM's static LP refit trains over, and the last model, which
model.txt holds.

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
from .ae import _snapshot_fold, d2v_ae_series, fit_snapshot, reconstruct, save_mlp_params, \
    window_inputs
from .config import ExperimentConfig
from .evaluation import EvalReport, export_projection, migration_proximity_stat, \
    node_classification, reconstruction_eval, save_report, static_lp_eval, \
    static_lp_split, temporal_lp_eval
from .graphs import GraphSnapshot, SnapshotSequence, dense_adjacency, load_snapshots, \
    save_snapshots
from .rng import Rng
from .sbm import diminish_series, load_labels, load_migrations, save_labels, \
    save_migrations
from .series import EmbeddingSeries, save_embedding_series
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
class Run:
    """What the tasks read: the sequence, its labels and migrations (None
    when the data has none), and the (series, extras) of the method's run."""

    seq: SnapshotSequence
    series: EmbeddingSeries
    extras: dict
    labels: list | None = None
    migrations: list | None = None


@dataclass(frozen=True)
class Method:
    """scores, refit and forecast read the run and give n x n scores: of
    snapshot t; of g in place of snapshot t, from the run's state at t - 1;
    of snapshot t + 1, from snapshots through t."""

    embed: Callable  # (cfg, seq) -> (series, extras)
    scores: Callable  # (cfg, run, t)
    refit: Callable  # (cfg, run, t, g)
    forecast: Callable  # (cfg, run, t)
    first_t: Callable = lambda cfg: 0  # the first snapshot it can score


def _svd_scores(cfg, run, t):
    return run.series.src_at(t) @ run.series.tgt_at(t).T


def _optsvd_refit(cfg, run, t, g):
    y_src, y_tgt, _ = svd_embed.optimal_svd_embed(g, cfg.d, t)
    return y_src @ y_tgt.T


# task -> (how far before the last snapshot its highest t lies, how far
# before its t it reads the run's state)
RUN_READS = {"reconstruction": (0, 0), "temporal_lp": (1, 0), "static_lp": (0, 1)}


def _highest_t(seq, task: str) -> int:
    return len(seq) - 1 - RUN_READS[task][0]


def _kept_steps(cfg, seq, tasks) -> set:
    """The steps whose state the configured tasks among `tasks` read from
    the run: the t of reconstruction and temporal LP, and static LP's t - 1,
    the step its refit branches from. An out-of-range t is left for the task
    to reject."""
    return {_from_end(cfg.tasks[name]["t"], _highest_t(seq, name)) - RUN_READS[name][1]
            for name in tasks if name in cfg.tasks}


def _svd_fold_record(theta) -> Method:
    """The incremental SVD fold; theta(cfg) is its restart tolerance. The run
    keeps one factor state, the one static LP branches from."""
    def embed(cfg, seq):
        keep = min(_kept_steps(cfg, seq, ("static_lp",)), default=None)
        series, log, state = rerun_svd_series(seq, cfg.d, theta(cfg), keep=keep)
        return series, {"restart_log": log, "state": state}

    def refit(cfg, run, t, g):
        if t == 0:
            return _optsvd_refit(cfg, run, t, g)
        state = run.extras["state"]
        if state is None or state.t_cur != t - 1:
            raise PipelineError(f"static_lp: the run kept no factor state for t={t - 1}")
        state, _ = rerun_svd_step(state, g, theta(cfg))
        y_src, y_tgt = state.embedding()
        return y_src @ y_tgt.T

    return Method(embed=embed, scores=_svd_scores, refit=refit, forecast=_svd_scores)


def _ae_scores(cfg, run, t):
    scores = run.extras["scores"].get(t)
    if scores is None:
        raise PipelineError(f"the run kept no scores for t={t}")
    return scores


def _ae_record(warm: bool = False, align: bool = False) -> Method:
    """A per-snapshot AE family through ae._snapshot_fold; with warm, a model
    trains over the previous one, and a refit over a copy of the run's model
    of t - 1 (dynGEM), else from fresh weights; with align, the embeddings
    are Procrustes-chained (AEalign). As each model is trained the run keeps
    the scores of the snapshots reconstruction and temporal LP read, the copy
    a refit takes over, and the last model, which model.txt holds."""
    def embed(cfg, seq):
        scored = _kept_steps(cfg, seq, ("reconstruction", "temporal_lp"))
        branched = _kept_steps(cfg, seq, ("static_lp",)) if warm else set()
        extras = {"scores": {}, "inits": {}}

        def on_step(t, model, adj):
            if t in scored:
                extras["scores"][t] = reconstruct(model, adj)
            if t in branched:
                extras["inits"][t] = model.copy()
            if t == len(seq) - 1:
                extras["model"] = model

        return _snapshot_fold(seq, cfg.ae, warm, align, on_step), extras

    def refit(cfg, run, t, g):
        init = None
        if warm and t:
            # the refit trains over the kept copy, so it takes it from the run
            init = run.extras["inits"].pop(t - 1, None)
            if init is None:
                raise PipelineError(f"the run kept no model for t={t - 1}")
        adj = dense_adjacency(g)
        return reconstruct(fit_snapshot(adj, cfg.ae, t, init), adj)

    return Method(embed=embed, scores=_ae_scores, refit=refit, forecast=_ae_scores)


def _d2v_embed(cfg, seq):
    series, result = d2v_ae_series(seq, cfg.ae)
    return series, {"model": result.params}


def _d2v_scores(cfg, run, t):
    return reconstruct(run.extras["model"], window_inputs(run.seq, t - 1, cfg.ae.lookback))


def _d2v_refit(cfg, run, t, g):
    # the run's model trained on windows after t, so retrain on the prefix
    return _d2v_scores(cfg, _prefix_run(cfg, run.seq, t, g), t)


def _d2v_forecast(cfg, run, t):
    # scores of t + 1 read the window ending at t
    return _d2v_scores(cfg, _prefix_run(cfg, run.seq, t), t + 1)


# rerun_svd_series, reconstruct and dense_adjacency are called by name on
# this module, and optimal_svd_embed on svd_embed, so a wrapper set where the
# library's own callers look them up (bench/tracing.py) sees every call.
METHOD_TABLE = {
    "optsvd": Method(embed=lambda cfg, seq: (optimal_svd_series(seq, cfg.d), {}),
                     scores=_svd_scores, refit=_optsvd_refit, forecast=_svd_scores),
    "incsvd": _svd_fold_record(lambda cfg: math.inf),
    "rerunsvd": _svd_fold_record(lambda cfg: cfg.theta),
    "ae_static": _ae_record(),
    "aealign": _ae_record(align=True),
    "dyngem": _ae_record(warm=True),
    "d2v_ae": Method(embed=_d2v_embed, scores=_d2v_scores, refit=_d2v_refit,
                     forecast=_d2v_forecast, first_t=lambda cfg: cfg.ae.lookback),
}


def embed_series(cfg: ExperimentConfig, seq: SnapshotSequence):
    """Run the configured method; returns (series, extras). extras may hold
    'restart_log' and 'state', the factor state static LP branches from
    (incsvd/rerunsvd), or 'model', the AE model model.txt holds (d2v_ae's one
    model, the other AE families' last one). The per-snapshot AE families
    add 'scores' (t -> the n x n scores of snapshot t that reconstruction
    and temporal LP read) and 'inits' (for dyngem, t -> a copy of the model
    of t that static LP's refit of t + 1 trains over, and takes)."""
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


def _task_t(cfg: ExperimentConfig, seq: SnapshotSequence, spec: dict, task: str) -> int:
    """The t of a task in RUN_READS, from the method's first_t to its highest t."""
    return _resolve_t(spec["t"], METHOD_TABLE[cfg.method].first_t(cfg), _highest_t(seq, task), task)


def _prefix_run(cfg, seq: SnapshotSequence, t: int, last: GraphSnapshot | None = None) -> Run:
    """The method's run on snapshots 0..t, with last in place of snapshot t."""
    prefix = SnapshotSequence([seq[i] for i in range(t)] + [seq[t] if last is None else last])
    return Run(prefix, *embed_series(cfg, prefix))


def _require(run: Run, task: str, *data: str) -> None:
    if any(getattr(run, name) is None for name in data):
        hint = " (generate SBM data or set data.labels)" if data == ("labels",) else ""
        raise PipelineError(f"{task} needs {' and '.join(data)}{hint}")


def task_reconstruction(cfg, run: Run, spec) -> EvalReport:
    t = _task_t(cfg, run.seq, spec, "reconstruction")
    scores = METHOD_TABLE[cfg.method].scores(cfg, run, t)
    return reconstruction_eval(scores, run.seq[t], spec["k_grid"])


def task_static_lp(cfg, run: Run, spec) -> EvalReport:
    t = _task_t(cfg, run.seq, spec, "static_lp")
    train, hidden = static_lp_split(run.seq[t], spec["hide_fraction"], Rng(cfg.seed + 101))
    scores = METHOD_TABLE[cfg.method].refit(cfg, run, t, train)
    return static_lp_eval(scores, train, hidden, spec["k_grid"])


def task_temporal_lp(cfg, run: Run, spec) -> EvalReport:
    t = _task_t(cfg, run.seq, spec, "temporal_lp")
    scores = METHOD_TABLE[cfg.method].forecast(cfg, run, t)
    return temporal_lp_eval(scores, run.seq, t, spec["k_grid"], mode=spec["mode"])


def task_classification(cfg, run: Run, spec) -> EvalReport:
    _require(run, "classification", "labels")
    t = _resolve_t(spec["t"], run.series.t_start, len(run.seq) - 1, "classification")
    micro, macro = node_classification(run.series.src_at(t), run.labels[t],
                                       spec["train_frac"], seed=cfg.seed)
    return EvalReport(task="classification", micro_f1=micro, macro_f1=macro)


def task_migration_stat(cfg, run: Run, spec) -> EvalReport:
    _require(run, "migration_stat", "labels", "migrations")
    ahead = int(spec["anticipate"])  # 1: against the migrants entering t + 1
    t = _resolve_t(spec["t"], max(run.series.t_start, 1 - ahead), len(run.seq) - 1 - ahead,
                   "migration_stat")
    stat = migration_proximity_stat(run.series, run.labels[t], run.migrations[t + ahead], t)
    return EvalReport(task="migration_stat", mode="anticipate" if ahead else "arrival",
                      stat=stat)


def task_projection(cfg, run: Run, spec, outdir: Path, files: dict):
    _require(run, "projection", "labels")
    t = _resolve_t(spec["t"], run.series.t_start, len(run.seq) - 1, "projection")
    migrated = {node for node, _, _ in run.migrations[t]} if run.migrations else set()
    name = f"projection_t{t}.txt"
    _write(files, outdir, name,
           lambda p: export_projection(run.series, t, run.labels[t], migrated, p))
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
    Each report is stamped here with the run's method, seed and config
    digest. Returns {"outdir", "files", "reports"}.
    """
    if stage not in ("embed", "evaluate", "project", "run"):
        raise PipelineError(f"unknown stage {stage!r}")
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _clear_outputs(outdir, cfg)
    files: dict = {}

    seq, labels, migrations = prepare_data(cfg, outdir, files)
    run = Run(seq, *embed_series(cfg, seq), labels, migrations)
    for path in save_embedding_series(run.series, outdir, prefix="emb"):
        files[Path(path).name] = _sha256(Path(path))
    if "restart_log" in run.extras:
        _write(files, outdir, "restart_log.txt",
               lambda p: save_restart_log(run.extras["restart_log"], p))
    if "model" in run.extras:
        _write(files, outdir, "model.txt", lambda p: save_mlp_params(run.extras["model"], p))

    reports = {}
    digest = config_digest(cfg)
    for name in sorted(cfg.tasks):
        if stage not in ("run", "project" if name == "projection" else "evaluate"):
            continue
        # looked up by name at each call, where bench/tracing.py wraps it
        task = globals()[f"task_{name}"]
        if name == "projection":
            task(cfg, run, cfg.tasks[name], outdir, files)
            continue
        report = task(cfg, run, cfg.tasks[name])
        report.method, report.seed, report.config_digest = cfg.method, cfg.seed, digest
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
