"""End-to-end experiment pipeline: data, embeddings, task reports, manifest.

Scoring conventions per method family:
  * SVD methods score pair (u, v) as Y_src[u] . Y_tgt[v].
  * Static AE methods (ae_static, aealign, dyngem) score via the decoded
    reconstruction of the adjacency rows at the evaluated step.
  * d2v_ae scores snapshot t from the decoded prediction of the window
    ending at t-1, so it needs t >= lookback.

Labels and migration records read from files are checked against the
sequence and against each other. A run first deletes the outputs an earlier
run left in its outdir.

Static link prediction replaces G_t with the train split inside the prefix
and re-embeds; temporal link prediction re-embeds on the prefix ending at t
so no method sees G_{t+1}. The manifest records the resolved config, the
kernel backend, package versions, and a sha256 digest per output file; it
contains no timestamps, so identical runs produce identical bytes.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from . import __version__, kernels
from .ae import AeConfig, aealign_series, d2v_ae_series, dyngem_series, reconstruct, \
    save_mlp_params, static_ae_series
from .config import AE_METHODS, SVD_METHODS, ExperimentConfig
from .evaluation import EvalError, export_projection, migration_proximity_stat, \
    node_classification, reconstruction_eval, save_report, static_lp_eval, \
    static_lp_split, temporal_lp_eval, EvalReport
from .graphs import GraphSnapshot, SnapshotSequence, dense_adjacency, load_snapshots, \
    save_snapshots
from .rng import Rng
from .sbm import diminish_series, load_labels, load_migrations, save_labels, \
    save_migrations
from .series import EmbeddingSeries, save_embedding_series
from .svd_embed import incremental_svd_series, optimal_svd_series, rerun_svd_series, \
    save_restart_log


# Names of the files a run writes, other than the generated data.
OWNED_OUTPUT = re.compile(
    r"emb_t\d+\.(src|tgt)|report_[a-z_]+\.json|projection_t\d+\.txt"
    r"|restart_log\.txt|model\.txt|manifest\.json")


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
            _write(files, outdir, "snapshots.txt", lambda p: save_snapshots(series.sequence, p))
            _write(files, outdir, "labels.txt", lambda p: save_labels(series, p))
            _write(files, outdir, "migrations.txt", lambda p: save_migrations(series, p))
        return series.sequence, series.labels, series.migrations
    seq = load_snapshots(cfg.data.snapshots_path)
    labels = load_labels(cfg.data.labels_path) if cfg.data.labels_path else None
    migrations = (load_migrations(cfg.data.migrations_path, len(seq))
                  if cfg.data.migrations_path else None)
    _check_against_sequence(seq, labels, migrations)
    return seq, labels, migrations


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


def embed_series(cfg: ExperimentConfig, seq: SnapshotSequence):
    """Run the configured method; returns (series, extras).

    extras may hold 'restart_log' (incsvd/rerunsvd), 'models' (static AE
    families, one per snapshot) or 'predictor' (d2v_ae).
    """
    method = cfg.method
    if method == "optsvd":
        return optimal_svd_series(seq, cfg.d), {}
    if method == "incsvd":
        series, log = incremental_svd_series(seq, cfg.d)
        return series, {"restart_log": log}
    if method == "rerunsvd":
        series, log = rerun_svd_series(seq, cfg.d, cfg.theta)
        return series, {"restart_log": log}
    if method == "ae_static":
        series, models = static_ae_series(seq, cfg.ae)
        return series, {"models": models}
    if method == "aealign":
        series, models = aealign_series(seq, cfg.ae)
        return series, {"models": models}
    if method == "dyngem":
        series, models = dyngem_series(seq, cfg.ae)
        return series, {"models": models}
    if method == "d2v_ae":
        series, predictor, result = d2v_ae_series(seq, cfg.ae)
        return series, {"predictor": predictor, "train_result": result}
    raise PipelineError(f"unknown method {method!r}")


def _resolve_t(spec_t: int, lo: int, hi: int, what: str) -> int:
    """Map a config t (negative = from the end) into [lo, hi]."""
    t = hi + 1 + spec_t if spec_t < 0 else spec_t
    if not lo <= t <= hi:
        raise PipelineError(f"{what}: t={spec_t} resolves to {t}, outside [{lo}, {hi}]")
    return t


def current_scores(cfg: ExperimentConfig, seq: SnapshotSequence, series: EmbeddingSeries,
                   extras: dict, t: int) -> np.ndarray:
    """n x n score matrix for snapshot t from artifacts trained on seq."""
    if cfg.method in SVD_METHODS:
        return series.src_at(t) @ series.tgt_at(t).T
    if cfg.method == "d2v_ae":
        if t < cfg.ae.lookback:
            raise PipelineError(f"d2v_ae scores need t >= lookback={cfg.ae.lookback}, got {t}")
        return extras["predictor"].predict_next(seq, t - 1)
    return reconstruct(extras["models"][t], dense_adjacency(seq[t]))


def _prefix(seq: SnapshotSequence, t: int) -> SnapshotSequence:
    return SnapshotSequence(tuple(seq[i] for i in range(t + 1)))


def _eval_meta(cfg: ExperimentConfig) -> dict:
    return {"method": cfg.method, "seed": cfg.seed, "config_digest": config_digest(cfg)}


def task_reconstruction(cfg, seq, series, extras, spec) -> EvalReport:
    lo = max(series.t_start, cfg.ae.lookback) if cfg.method == "d2v_ae" else series.t_start
    t = _resolve_t(spec["t"], lo, len(seq) - 1, "reconstruction")
    scores = current_scores(cfg, seq, series, extras, t)
    return reconstruction_eval(scores, seq[t], spec["k_grid"], **_eval_meta(cfg))


def task_static_lp(cfg, seq, spec) -> EvalReport:
    lo = cfg.ae.lookback if cfg.method == "d2v_ae" else 0
    t = _resolve_t(spec["t"], lo, len(seq) - 1, "static_lp")
    train, hidden = static_lp_split(seq[t], spec["hide_fraction"], Rng(cfg.seed + 101))
    snaps = [seq[i] for i in range(t + 1)]
    snaps[t] = train
    series2, extras2 = embed_series(cfg, SnapshotSequence(tuple(snaps)))
    scores = current_scores(cfg, SnapshotSequence(tuple(snaps)), series2, extras2, t)
    return static_lp_eval(scores, train, hidden, spec["k_grid"], **_eval_meta(cfg))


def task_temporal_lp(cfg, seq, spec) -> EvalReport:
    lo = cfg.ae.lookback if cfg.method == "d2v_ae" else 0
    t = _resolve_t(spec["t"], lo, len(seq) - 2, "temporal_lp")
    prefix = _prefix(seq, t)
    series2, extras2 = embed_series(cfg, prefix)
    if cfg.method == "d2v_ae":
        scores = extras2["predictor"].predict_next(prefix, t)
    elif cfg.method in SVD_METHODS:
        scores = series2.src_at(t) @ series2.tgt_at(t).T
    else:
        scores = reconstruct(extras2["models"][t], dense_adjacency(seq[t]))
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


def _clear_outputs(outdir: Path) -> None:
    """Delete what an earlier run may have left in outdir, so that no file of
    it is read as part of this run. Data files are kept: a run may read its
    input from there."""
    for path in outdir.iterdir():
        if OWNED_OUTPUT.fullmatch(path.name) and path.is_file():
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


def _versions() -> dict:
    versions = {"dynembed": __version__, "numpy": np.__version__}
    try:
        import numba
        versions["numba"] = numba.__version__
    except ImportError:
        versions["numba"] = None
    return versions


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
    _clear_outputs(outdir)
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
    if "predictor" in extras:
        _write(files, outdir, "model.txt",
               lambda p: save_mlp_params(extras["predictor"].params, p))

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
            report = task_static_lp(cfg, seq, spec)
        elif name == "temporal_lp":
            report = task_temporal_lp(cfg, seq, spec)
        elif name == "classification":
            report = task_classification(cfg, seq, series, labels, spec)
        else:
            report = task_migration_stat(cfg, seq, series, labels, migrations, spec)
        reports[name] = report
        _write(files, outdir, f"report_{name}.json", lambda p, r=report: save_report(r, p))

    if stage == "run":
        manifest = {
            "backend": kernels.BACKEND,
            "config": cfg.resolved(),
            "files": dict(sorted(files.items())),
            "versions": _versions(),
        }
        with open(outdir / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return {"outdir": str(outdir), "files": files, "reports": reports}
