"""End-to-end experiment pipeline: data, embeddings, task reports, manifest.

METHOD_TABLE holds, one record per method, what the pipeline does by method;
config.METHODS holds the method fields each method reads. SVD methods score
pair (u, v) as Y_src[u] . Y_tgt[v], static AE methods by the decoded
adjacency rows, and d2v_ae by the decoded prediction of the window ending at
t-1, so it needs t >= lookback.

Every task, task_<name>(cfg, run, spec, t), reads the method's one Run and
returns a report or {name: writer(run, path)}. All methods but d2v_ae are
causal folds, whose state at t has seen nothing after t: temporal link
prediction scores snapshot t from the run, and static link prediction takes
one step from the run's state at t-1 onto the train split of G_t (at t = 0, a
fresh start). For the SVD folds that step is usually a batch step: the hidden
edges touch almost every row, so the update would take the epoch's width to n
and is the batch SVD of the train split. d2v_ae trains on windows from the
whole sequence, so it alone retrains on the prefix ending at t for both tasks.

One plan (plan_tasks) checks each configured task's data, d and t (and
that migration_stat's step can be scored) before the embed, so a task that
cannot run fails first, at every stage; each task takes its t from it. A
run keeps only the per-step state the tasks read (_kept_steps, from the
same plan): the SVD folds one factor state. The per-snapshot AE families
run through one fold (ae._snapshot_fold), which keeps no model; the
per-step callback keeps the n x n scores that reconstruction and temporal
LP read, the model copy dynGEM's static LP refit trains over, and the last
model until model.txt is written from it.

Labels and migration records read from files are checked against the
sequence and against each other. A run first deletes the outputs an earlier
run left in its outdir (OWNED_OUTPUT, from the two tables). The manifest
records the resolved config, package versions, the build config and thread
count of the OpenBLAS numpy ships, and a sha256 digest per output file; it
contains no timestamps, so identical runs produce identical bytes.
"""

import ctypes
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, svd_embed
from .ae import _snapshot_fold, d2v_ae_series, fit_snapshot, reconstruct, save_mlp_params, \
    window_inputs
from .config import ExperimentConfig
from .evaluation import EvalReport, centroid_members, export_projection, \
    migration_proximity_stat, node_classification, reconstruction_eval, save_report, \
    static_lp_eval, static_lp_split, temporal_lp_eval
from .graphs import GraphSnapshot, SnapshotSequence, dense_adjacency, load_snapshots, \
    save_snapshots
from .rng import Rng
from .sbm import diminish_series, load_labels, load_migrations, save_labels, \
    save_migrations
from .series import EmbeddingSeries, save_embedding_series
from .svd_embed import optimal_svd_series, rerun_svd_series, rerun_svd_step, \
    save_restart_log


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
    first_t: Callable = lambda cfg: 0  # the first snapshot it embeds
    lag: int = 0  # its scores of t read its state at t - lag: it scores from first_t + lag
    outputs: dict = field(default_factory=dict)  # other files, {name: writer(run, path)}


def _svd_scores(cfg, run, t):
    return run.series.src_at(t) @ run.series.tgt_at(t).T


def _optsvd_refit(cfg, run, t, g):
    y_src, y_tgt, _ = svd_embed.optimal_svd_embed(g, cfg.d, t)
    return y_src @ y_tgt.T


# task -> (the data it reads, how far before the last snapshot its highest t
# lies, how far before its t it reads the run's state, or None: only the series)
TASK_READS = {"reconstruction": ((), 0, 0), "static_lp": ((), 0, 1), "temporal_lp": ((), 1, 0),
              "classification": (("labels",), 0, None), "projection": (("labels",), 0, None),
              "migration_stat": (("labels", "migrations"), 0, None)}


def plan_tasks(cfg, seq: SnapshotSequence, labels=None, migrations=None,
               tasks=TASK_READS) -> dict:
    """{task: t} for cfg's tasks among `tasks`, each checked: the data it
    reads is there, projection has d >= 2, its config t (negative counts
    back from its highest t) lies from the method's first embedded t, or
    first scored t if it reads the run, to its highest t, and migration_stat's
    step can be scored (evaluation.centroid_members)."""
    method, plan = METHOD_TABLE[cfg.method], {}
    for name in sorted(cfg.tasks.keys() & tasks):
        (data, back, step), spec_t = TASK_READS[name], cfg.tasks[name]["t"]
        if any({"labels": labels, "migrations": migrations}[key] is None for key in data):
            hint = " (generate SBM data or set data.labels)" if data == ("labels",) else ""
            raise PipelineError(f"{name} needs {' and '.join(data)}{hint}")
        if name == "projection" and cfg.d < 2:
            raise PipelineError(f"projection needs d >= 2, got d={cfg.d}")
        lo, hi = method.first_t(cfg) + (0 if step is None else method.lag), len(seq) - 1 - back
        if "migrations" in data:  # the migrants entering t, or t + 1; none enter at t = 0
            ahead = int(cfg.tasks[name]["anticipate"])
            lo, hi = max(lo, 1 - ahead), hi - ahead
        t = hi + 1 + spec_t if spec_t < 0 else spec_t
        if not lo <= t <= hi:
            raise PipelineError(f"{name}: t={spec_t} resolves to {t}, outside [{lo}, {hi}]")
        if "migrations" in data:  # the step has migrants, and a centroid for each community
            centroid_members(labels[t], migrations[t + ahead], t)
        plan[name] = t
    return plan


def _kept_steps(cfg, seq, tasks) -> set:
    """The steps of the run the configured tasks among `tasks` read: the t of
    reconstruction and temporal LP, and static LP's t - 1, its refit's base."""
    return {t - TASK_READS[name][2] for name, t in plan_tasks(cfg, seq, tasks=tasks).items()}


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

    return Method(embed=embed, scores=_svd_scores, refit=refit, forecast=_svd_scores,
                  outputs={"restart_log.txt": lambda run, p: save_restart_log(
                      run.extras["restart_log"], p)})


def _ae_scores(cfg, run, t):
    scores = run.extras["scores"].get(t)
    if scores is None:
        raise PipelineError(f"the run kept no scores for t={t}")
    return scores


def _ae_record(warm: bool = False, align: bool = False) -> Method:
    """A per-snapshot AE family through ae._snapshot_fold; with warm, a model
    trains over the previous one, and a refit over a copy of the run's model
    of t - 1 (dynGEM), else from fresh weights; with align, the embeddings
    are Procrustes-chained (AEalign)."""
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

    return Method(embed=embed, scores=_ae_scores, refit=refit, forecast=_ae_scores,
                  outputs={"model.txt": lambda run, p: save_mlp_params(
                      run.extras.pop("model"), p)})


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
                     forecast=_d2v_forecast, first_t=lambda cfg: cfg.ae.lookback - 1, lag=1,
                     outputs={"model.txt": lambda run, p: save_mlp_params(
                         run.extras["model"], p)}),
}

# Names of the files a run writes, other than the generated data.
OWNED_OUTPUT = re.compile("|".join(
    [r"emb_t\d+\.(src|tgt)", r"projection_t\d+\.txt", r"manifest\.json"]
    + [re.escape(f"report_{name}.json") for name in TASK_READS if name != "projection"]
    + [re.escape(n) for n in sorted({n for m in METHOD_TABLE.values() for n in m.outputs})]))


def embed_series(cfg: ExperimentConfig, seq: SnapshotSequence):
    """Run the configured method; returns (series, extras), what the run
    keeps: for incsvd/rerunsvd 'restart_log' and 'state', the factor state
    static LP branches from; for d2v_ae 'model'; for the per-snapshot AE
    families 'scores' (t -> the n x n scores of snapshot t, taken as its
    model was trained), 'inits' (for dyngem, t -> a copy of the model of t
    that static LP's refit of t + 1 trains over, and takes) and 'model', the
    last model, which their outputs take out of extras for model.txt. The
    steps a run keeps are those plan_tasks resolves for cfg's tasks."""
    return METHOD_TABLE[cfg.method].embed(cfg, seq)


def _prefix_run(cfg, seq: SnapshotSequence, t: int, last: GraphSnapshot | None = None) -> Run:
    """The method's run on snapshots 0..t, with last in place of snapshot t."""
    prefix = SnapshotSequence([seq[i] for i in range(t)] + [seq[t] if last is None else last])
    return Run(prefix, *embed_series(cfg, prefix))


def task_reconstruction(cfg, run: Run, spec, t: int) -> EvalReport:
    scores = METHOD_TABLE[cfg.method].scores(cfg, run, t)
    return reconstruction_eval(scores, run.seq[t], spec["k_grid"])


def task_static_lp(cfg, run: Run, spec, t: int) -> EvalReport:
    train, hidden = static_lp_split(run.seq[t], spec["hide_fraction"], Rng(cfg.seed + 101))
    scores = METHOD_TABLE[cfg.method].refit(cfg, run, t, train)
    return static_lp_eval(scores, train, hidden, spec["k_grid"])


def task_temporal_lp(cfg, run: Run, spec, t: int) -> EvalReport:
    scores = METHOD_TABLE[cfg.method].forecast(cfg, run, t)
    return temporal_lp_eval(scores, run.seq, t, spec["k_grid"], mode=spec["mode"])


def task_classification(cfg, run: Run, spec, t: int) -> EvalReport:
    micro, macro = node_classification(run.series.src_at(t), run.labels[t],
                                       spec["train_frac"], seed=cfg.seed)
    return EvalReport(task="classification", micro_f1=micro, macro_f1=macro)


def task_migration_stat(cfg, run: Run, spec, t: int) -> EvalReport:
    ahead = int(spec["anticipate"])  # 1: against the migrants entering t + 1
    stat = migration_proximity_stat(run.series, run.labels[t], run.migrations[t + ahead], t)
    return EvalReport(task="migration_stat", mode="anticipate" if ahead else "arrival",
                      stat=stat)


def task_projection(cfg, run: Run, spec, t: int) -> dict:
    migrated = {node for node, _, _ in run.migrations[t]} if run.migrations else set()
    return {f"projection_t{t}.txt":
            lambda run, p: export_projection(run.series, t, run.labels[t], migrated, p)}


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


def _blas() -> dict:
    """The build config and thread count of the OpenBLAS in numpy.libs, read
    through ctypes; each None where the library or its symbol is missing."""
    info = {"config": None, "threads": None}
    libs = (Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*")
    try:
        lib = ctypes.CDLL(str(min(libs)))
    except (ValueError, OSError):  # no such library, or it does not load
        return info
    for key, symbol, restype, read in (("config", "get_config", ctypes.c_char_p, bytes.decode),
                                       ("threads", "get_num_threads", ctypes.c_int, int)):
        fn = getattr(lib, f"scipy_openblas_{symbol}64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], restype
            info[key] = read(fn())
    return info


def _write(files: dict | None, outdir: Path, name: str, writer) -> Path:
    path = outdir / name
    writer(path)
    if files is not None:
        files[name] = _sha256(path)
    return path


def _write_outputs(files: dict, outdir: Path, run: Run, writers: dict) -> None:
    for name, writer in writers.items():
        _write(files, outdir, name, lambda p: writer(run, p))


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
    plan = plan_tasks(cfg, seq, labels, migrations)  # a task that cannot run fails first
    run = Run(seq, *embed_series(cfg, seq), labels, migrations)
    for path in save_embedding_series(run.series, outdir, prefix="emb"):
        files[Path(path).name] = _sha256(Path(path))
    _write_outputs(files, outdir, run, METHOD_TABLE[cfg.method].outputs)

    reports = {}
    digest = config_digest(cfg)
    for name, t in sorted(plan.items()):
        if stage not in ("run", "project" if name == "projection" else "evaluate"):
            continue
        # looked up by name at each call, where bench/tracing.py wraps it
        result = globals()[f"task_{name}"](cfg, run, cfg.tasks[name], t)
        if isinstance(result, EvalReport):
            result.method, result.seed, result.config_digest = cfg.method, cfg.seed, digest
            reports[name] = result
            result = {f"report_{name}.json": lambda run, p, r=result: save_report(r, p)}
        _write_outputs(files, outdir, run, result)

    if stage == "run":
        manifest = {
            "blas": _blas(),
            "config": cfg.resolved(),
            "files": dict(sorted(files.items())),
            "versions": {"dynembed": __version__, "numpy": np.__version__},
        }
        with open(outdir / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return {"outdir": str(outdir), "files": files, "reports": reports}
