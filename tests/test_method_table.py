"""The method table's causal contract: one run of the method serves every
task.

Link prediction used to re-run the method on the prefix of the sequence
ending at t; oracles.py keeps that path. The scores from the single run must
equal it bitwise for every method, and a causal method must embed the
sequence exactly once.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dynembed import pipeline
from dynembed.config import METHODS, from_dict
from dynembed.graphs import SnapshotSequence
from dynembed.pipeline import embed_series, prepare_data, run_experiment

from oracles import prefix_static_lp_scores, prefix_temporal_lp_scores

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
@pytest.mark.parametrize("method", ["incsvd", "rerunsvd"])
def test_static_lp_from_a_step_the_run_did_not_keep(monkeypatch, method, kept):
    # the run kept no state, or the one for static_lp t = 2; score t = 4
    tasks = {} if kept is None else {"static_lp": {"t": kept}}
    cfg = _cfg(method, tasks)
    seq = prepare_data(cfg)[0]
    series, extras = embed_series(cfg, seq)
    spec = _cfg(method, {"static_lp": {"t": 4}}).tasks["static_lp"]
    seen = []
    real = pipeline.static_lp_eval

    def capture(scores, *args, **kwargs):
        seen.append(scores)
        return real(scores, *args, **kwargs)

    monkeypatch.setattr(pipeline, "static_lp_eval", capture)
    pipeline.task_static_lp(cfg, seq, series, extras, spec)
    assert _bits(seen[0]) == _bits(prefix_static_lp_scores(cfg, seq, spec))


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


def test_benchmark_trace_hooks_see_one_run(tmp_path, monkeypatch):
    tracing = _bench_tracing()
    for sites in tracing.TRACED.values():
        for module_name, attr in sites:
            module = importlib.import_module(f"dynembed.{module_name}")
            monkeypatch.setattr(module, attr, getattr(module, attr))  # undone after the test
    tracer = tracing.Tracer()
    tracer.install()
    # static LP at t = 0 refits from a fresh batch SVD of the train split
    cfg = _cfg("rerunsvd", {"static_lp": {"t": 0}, "temporal_lp": {},
                            "reconstruction": {}}, tmp_path)
    run_experiment(cfg)
    calls = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    trace = tracer.export(0.0)
    assert calls["pipeline.embed"] == 1 and calls["svd_embed.series"] == 1
    assert calls["svd_embed.batch_embed"] == calls["numerics.truncated_svd"]
    assert trace["series_length"] == LENGTH
    assert trace["counters"]["pipeline.snapshots_embedded"] == LENGTH
    log = np.loadtxt(tmp_path / "restart_log.txt")
    assert trace["restarts"] == int(log[:, 1].sum()) > 0
