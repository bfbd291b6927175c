"""The method table's causal contract: one run of the method serves every
task.

Link prediction used to re-run the method on the prefix of the sequence
ending at t; oracles.py keeps that path. The scores from the single run must
equal it bitwise for every method, and a causal method must embed the
sequence exactly once.
"""

import dataclasses
import importlib
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dynembed import ae, pipeline
from dynembed.config import AE_METHODS, METHODS, from_dict
from dynembed.graphs import GraphSnapshot, SnapshotSequence, dense_adjacency, save_snapshots
from dynembed.pipeline import embed_series, prepare_data, run_experiment
from dynembed.svd_embed import rerun_svd_series, save_restart_log

from oracles import _prefix_embed, prefix_static_lp_scores, prefix_temporal_lp_scores

CAUSAL = [m for m in METHODS if m != "d2v_ae"]
LENGTH = 6
LOOKBACK = 2


def _cfg(method, tasks=None, outdir="."):
    return from_dict({
        "seed": 3, "outdir": str(outdir),
        "data": {"sbm": {"node_num": 100, "community_num": 2, "length": LENGTH,
                         "node_change_num": 1, "p_in": 0.3, "p_out": 0.02}},
        # here rerunsvd restarts (incsvd, with theta = inf, never does)
        "method": {"name": method, "d": 2, "theta": 0.01, "enc_units": [8],
                   "dec_units": [8], "n_iter": 2, "n_batch": 8, "xeta": 0.01,
                   "lookback": LOOKBACK},
        "tasks": tasks or {},
    })


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def test_rerunsvd_fixture_restarts():
    cfg = _cfg("rerunsvd")
    _, extras = embed_series(cfg, prepare_data(cfg)[0])
    assert any(e.restarted for e in extras["restart_log"][1:])


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("task", ["static_lp", "temporal_lp"])
@pytest.mark.parametrize("method", METHODS)
def test_link_prediction_scores_equal_prefix_reembed(tmp_path, monkeypatch, method, task,
                                                     where):
    t = {"first": LOOKBACK if method == "d2v_ae" else 0, "middle": 3, "last": -1}[where]
    cfg = _cfg(method, {task: {"t": t}}, tmp_path)
    seen = []
    evaluator = f"{task}_eval"
    real = getattr(pipeline, evaluator)

    def capture(scores, *args, **kwargs):
        seen.append(scores)
        return real(scores, *args, **kwargs)

    monkeypatch.setattr(pipeline, evaluator, capture)
    run_experiment(cfg, stage="evaluate")

    seq = prepare_data(cfg)[0]
    oracle = prefix_static_lp_scores if task == "static_lp" else prefix_temporal_lp_scores
    (scores,) = seen
    assert _bits(scores) == _bits(oracle(cfg, seq, cfg.tasks[task]))


@pytest.mark.parametrize("kept", [None, 2])
def test_static_lp_needs_the_state_the_run_kept(kept):
    # the run keeps the state static LP branches from; a spec other than
    # the run's is refused, not refolded
    cfg = _cfg("rerunsvd", {} if kept is None else {"static_lp": {"t": kept}})
    seq = prepare_data(cfg)[0]
    series, extras = embed_series(cfg, seq)
    spec = _cfg("rerunsvd", {"static_lp": {"t": 4}}).tasks["static_lp"]
    with pytest.raises(pipeline.PipelineError, match="kept no factor state for t=3"):
        pipeline.task_static_lp(cfg, seq, series, extras, spec)


PER_SNAPSHOT_AE = ["ae_static", "aealign", "dyngem"]
# tasks -> the steps whose models a run reads: (static AE and AEalign, dynGEM)
KEPT_CASES = {
    "none": ({}, set(), set()),
    "reconstruction": ({"reconstruction": {"t": 1}}, {1}, {1}),
    "temporal_lp_middle": ({"temporal_lp": {"t": 2}}, {2}, {2}),
    # dynGEM's refit warm-starts from the model of t - 1, the others' from
    # fresh weights
    "static_lp_first": ({"static_lp": {"t": 0}}, set(), set()),
    "static_lp_middle": ({"static_lp": {"t": 3}}, set(), {2}),
    "static_lp_last": ({"static_lp": {"t": -1}}, set(), {LENGTH - 2}),
}


@pytest.mark.parametrize("case", sorted(KEPT_CASES))
@pytest.mark.parametrize("method", PER_SNAPSHOT_AE)
def test_ae_run_keeps_only_the_models_its_tasks_read(tmp_path, monkeypatch, method, case):
    tasks, static_reads, warm_reads = KEPT_CASES[case]
    cfg = _cfg(method, tasks, tmp_path / "kept")
    models = embed_series(cfg, prepare_data(cfg)[0])[1]["models"]
    reads = warm_reads if method == "dyngem" else static_reads
    assert [t for t, m in enumerate(models) if m is not None] == sorted(reads | {LENGTH - 1})
    kept = run_experiment(cfg)["files"]
    # every report, model.txt and embedding is the one of a run that keeps
    # every model
    monkeypatch.setitem(pipeline.METHOD_TABLE, method,
                        dataclasses.replace(pipeline.METHOD_TABLE[method], embed=_prefix_embed))
    assert run_experiment(_cfg(method, tasks, tmp_path / "all"))["files"] == kept


@pytest.mark.parametrize("method", PER_SNAPSHOT_AE)
def test_ae_tasks_need_the_models_the_run_kept(method):
    # the run keeps the models of t = 1 and of the last t; its out-of-range
    # static LP spec is left for that task to reject
    cfg = _cfg(method, {"temporal_lp": {"t": 1}, "static_lp": {"t": LENGTH}})
    seq = prepare_data(cfg)[0]
    series, extras = embed_series(cfg, seq)

    def run(task, t):
        spec = _cfg(method, {task: {"t": t}}).tasks[task]
        return getattr(pipeline, f"task_{task}")(cfg, seq, series, extras, spec)

    for task in ("reconstruction", "temporal_lp"):
        with pytest.raises(pipeline.PipelineError, match="kept no model for t=2"):
            run(task, 2)
        run(task, 1)
    if method == "dyngem":
        with pytest.raises(pipeline.PipelineError, match="kept no model for t=2"):
            run("static_lp", 3)
    else:
        run("static_lp", 3)
    # an out-of-range t is the task's own error, before any model is read
    for task, hi in (("reconstruction", LENGTH - 1), ("temporal_lp", LENGTH - 2),
                     ("static_lp", LENGTH - 1)):
        with pytest.raises(pipeline.PipelineError,
                           match=rf"{task}: t={LENGTH} resolves to {LENGTH}, outside \[0, {hi}\]"):
            run(task, LENGTH)


def _embed_and_score_peak(length):
    """tracemalloc's peak, in bytes, of a dyngem run over a sequence of
    `length` snapshots and its reconstruction and temporal LP, with the
    sequence built before tracing starts; and the bytes of one model."""
    cfg = from_dict({
        "seed": 3,
        "data": {"sbm": {"node_num": 80, "community_num": 2, "length": length,
                         "node_change_num": 1, "p_in": 0.3, "p_out": 0.02}},
        "method": {"name": "dyngem", "d": 2, "enc_units": [40], "dec_units": [40],
                   "n_iter": 1, "n_batch": 16},
        "tasks": {"reconstruction": {}, "temporal_lp": {}},
    })
    seq = prepare_data(cfg)[0]
    tracemalloc.start()
    try:
        series, extras = embed_series(cfg, seq)
        for name in ("reconstruction", "temporal_lp"):
            getattr(pipeline, f"task_{name}")(cfg, seq, series, extras, cfg.tasks[name])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    model = extras["models"][-1]
    return peak, sum(a.nbytes for a in model.weights + model.biases)


def test_ae_run_memory_does_not_grow_with_the_models_it_drops():
    # numpy reports its buffers to tracemalloc. From T = 8 to T = 16 the run
    # holds 16 more embeddings of 80 x 2 and as many models as before; one
    # model of 80 -> 40 -> 2 -> 40 -> 80 takes 54 KB.
    short, model_bytes = _embed_and_score_peak(8)
    long, _ = _embed_and_score_peak(16)
    assert long - short < 2 * model_bytes


def _last_model(cfg, seq):
    """The model the method trained last, from its series function."""
    if cfg.method == "d2v_ae":
        return ae.d2v_ae_series(seq, cfg.ae)[1].params
    series_fn = {"ae_static": ae.static_ae_series, "aealign": ae.aealign_series,
                 "dyngem": ae.dyngem_series}[cfg.method]
    return series_fn(seq, cfg.ae)[1][-1]


@pytest.mark.parametrize("method", METHODS)
def test_each_method_writes_its_artifact(tmp_path, method):
    # the SVD folds write their restart log, the AE families their last model
    # and optsvd neither
    cfg = _cfg(method, outdir=tmp_path / "out")
    files = run_experiment(cfg)["files"]
    seq = prepare_data(cfg)[0]
    assert ("restart_log.txt" in files) == (method in ("incsvd", "rerunsvd"))
    assert ("model.txt" in files) == (method in AE_METHODS)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted([*files, "manifest.json"])
    if "restart_log.txt" in files:
        theta = cfg.theta if method == "rerunsvd" else math.inf
        save_restart_log(rerun_svd_series(seq, cfg.d, theta)[1], tmp_path / "log.txt")
        assert (tmp_path / "out" / "restart_log.txt").read_bytes() == \
            (tmp_path / "log.txt").read_bytes()
    if "model.txt" in files:
        ae.save_mlp_params(_last_model(cfg, seq), tmp_path / "model.txt")
        assert (tmp_path / "out" / "model.txt").read_bytes() == \
            (tmp_path / "model.txt").read_bytes()


@pytest.mark.parametrize("method", CAUSAL)
def test_causal_embedding_at_t_ignores_later_snapshots(method):
    cfg = _cfg(method)
    seq = prepare_data(cfg)[0]
    full, _ = embed_series(cfg, seq)
    for t in range(len(seq)):
        part, _ = embed_series(cfg, SnapshotSequence(tuple(seq[i] for i in range(t + 1))))
        assert _bits(part.src_at(t)) == _bits(full.src_at(t))
        assert _bits(part.tgt_at(t)) == _bits(full.tgt_at(t))


@pytest.mark.parametrize("method", METHODS)
def test_one_run_serves_both_link_prediction_tasks(tmp_path, monkeypatch, method):
    lengths = []
    real = pipeline.embed_series

    def counting(cfg, seq, *args):
        lengths.append(len(seq))
        return real(cfg, seq, *args)

    folds = []
    real_fold = pipeline.rerun_svd_series

    def counting_fold(*args, **kwargs):
        folds.append(args[1])
        return real_fold(*args, **kwargs)

    monkeypatch.setattr(pipeline, "embed_series", counting)
    monkeypatch.setattr(pipeline, "rerun_svd_series", counting_fold)
    run_experiment(_cfg(method, {"static_lp": {}, "temporal_lp": {}}, tmp_path))
    # d2v_ae alone retrains, on the prefixes ending at T-1 and T-2
    assert lengths == ([LENGTH] if method in CAUSAL else [LENGTH, LENGTH, LENGTH - 1])
    # and the SVD fold kept the state static LP branches from
    assert len(folds) == (method in ("incsvd", "rerunsvd"))


def _bench_tracing():
    """bench/tracing.py, loaded by path: bench/ is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_hooks_resolve():
    for name, sites in _bench_tracing().TRACED.items():
        for module_name, attr in sites:
            module = importlib.import_module(f"dynembed.{module_name}")
            assert callable(getattr(module, attr, None)), f"{name}: dynembed.{module_name}.{attr}"


def _traced_run(cfg, monkeypatch):
    """Run cfg under the benchmark's tracer; returns (calls per span, trace).
    The trace's spans are [name, start, end, index of the parent span]."""
    tracing = _bench_tracing()
    for sites in tracing.TRACED.values():
        for module_name, attr in sites:
            module = importlib.import_module(f"dynembed.{module_name}")
            monkeypatch.setattr(module, attr, getattr(module, attr))  # undone after the test
    tracer = tracing.Tracer()
    tracer.install()
    run_experiment(cfg)
    calls = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    return calls, tracer.export(0.0)


def test_benchmark_trace_hooks_see_one_run(tmp_path, monkeypatch):
    # static LP at t = 0 refits from a fresh batch SVD of the train split
    cfg = _cfg("rerunsvd", {"static_lp": {"t": 0}, "temporal_lp": {},
                            "reconstruction": {}}, tmp_path)
    calls, trace = _traced_run(cfg, monkeypatch)
    assert calls["pipeline.embed"] == 1 and calls["svd_embed.series"] == 1
    # each batch embed runs one truncated SVD; every other one is the Ritz
    # step of an update
    spans = trace["spans"]
    parents = [spans[parent][0] for name, _, _, parent in spans
               if name == "numerics.truncated_svd"]
    assert parents.count("svd_embed.batch_embed") == calls["svd_embed.batch_embed"]
    assert parents.count("svd_embed.update") > 0
    assert set(parents) == {"svd_embed.batch_embed", "svd_embed.update"}
    assert trace["series_length"] == LENGTH
    assert trace["counters"]["pipeline.snapshots_embedded"] == LENGTH
    log = np.loadtxt(tmp_path / "restart_log.txt")
    assert trace["restarts"] == int(log[:, 1].sum()) > 0


def test_benchmark_trace_hooks_see_one_ae_run(tmp_path, monkeypatch):
    cfg = _cfg("dyngem", {"reconstruction": {}, "temporal_lp": {}}, tmp_path)
    calls, trace = _traced_run(cfg, monkeypatch)
    assert calls["pipeline.embed"] == 1
    # one model trained and one embedding encoded per snapshot
    assert calls["ae.train"] == calls["ae.encode"] == LENGTH
    assert trace["counters"]["ae.epochs"] == LENGTH * cfg.ae.n_iter
    assert calls["kernels.affine_sigmoid"] > 0
    # encoding runs the sigmoid hidden layers of the encoder and no decoder layer
    spans = trace["spans"]
    in_encode = sum(name == "kernels.affine_sigmoid" and spans[parent][0] == "ae.encode"
                    for name, _, _, parent in spans if parent is not None)
    assert in_encode == LENGTH * len(cfg.ae.enc_units)
    # both tasks score snapshots by decoding them
    assert calls["ae.reconstruct"] == 2


def test_benchmark_trace_hooks_see_the_d2v_decode(tmp_path, monkeypatch):
    cfg = _cfg("d2v_ae", {"reconstruction": {}}, tmp_path)
    calls, _ = _traced_run(cfg, monkeypatch)
    assert calls["pipeline.embed"] == calls["ae.train"] == 1
    # d2v_ae scores snapshot t by decoding the window ending at t - 1
    assert calls["ae.reconstruct"] == 1


def test_benchmark_delta_counter_counts_changed_entries(tmp_path, monkeypatch):
    # weight 2 on every third out-row of each SBM snapshot, shifting by one row
    # per step: a step adds and removes edges, reweights some and keeps others
    seq = prepare_data(_cfg("rerunsvd"))[0]
    seq = SnapshotSequence(GraphSnapshot(g.n, g.rows, g.cols, 1.0 + ((g.rows + t) % 3 == 0))
                           for t, g in enumerate(seq))
    save_snapshots(seq, tmp_path / "snapshots.txt")
    cfg = from_dict({"outdir": str(tmp_path / "out"),
                     "data": {"snapshots": str(tmp_path / "snapshots.txt")},
                     "method": {"name": "rerunsvd", "d": 2, "theta": 0.01}})
    calls, trace = _traced_run(cfg, monkeypatch)
    changed = [int(np.count_nonzero(dense_adjacency(seq[t]) - dense_adjacency(seq[t - 1])))
               for t in range(1, len(seq))]
    assert calls["graphs.edge_delta"] == len(seq) - 1
    assert trace["counters"]["graphs.delta_entries"] == sum(changed)
