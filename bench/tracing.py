"""Spans and counters around dynembed's layer functions, from outside src/.

Each traced function is replaced by a wrapper at the module attribute its
caller looks up: `pipeline` imports names directly, so e.g. `embed_series`
and `rerun_svd_series` are patched on `dynembed.pipeline`, while
`incremental_update` is looked up on `dynembed.svd_embed`. A span records
(name, start, end, parent); spans stay in memory and are exported when the
run ends. Counters are taken at the same boundaries. Work that only the
benchmark needs (the rank of each update factor) is deferred to export(),
outside every span and outside run_s.

Per-layer seconds are self time: a span's duration minus its children's,
reported as "<span>_s" for every span name.

The end-to-end metric each layer should move, and on which workload:
  sbm.*, series.*                       run_s on svd-track
  graphs.*                              run_s and peak_rss_mb on svd-track
  svd_embed.update*, delta_factor, bound, delta_rank_mean, width_efficiency
                                        run_s on svd-track, little on svd-rank
  svd_embed.batch_embed*, restarts, bound_zero_steps, numerics.*
                                        run_s on svd-rank
  ae.*                                  run_s and cpu_s on ae-dyngem
  kernels.*                             run_s on ae-dyngem, nothing on the
                                        SVD workloads
  evaluation.*                          run_s on svd-rank, about 0 on svd-track
  pipeline.embed_calls, reembed_ratio   run_s on svd-rank and ae-dyngem
"""

import functools
import importlib
import os
import time
import uuid

import numpy as np

TASKS = ("reconstruction", "static_lp", "temporal_lp", "classification",
         "migration_stat", "projection")

# span name -> (module, attribute) pairs to wrap
TRACED = {
    "sbm.generate": [("pipeline", "diminish_series")],
    "graphs.edge_delta": [("svd_embed", "edge_delta")],
    "graphs.dense_adjacency": [("svd_embed", "dense_adjacency"), ("ae", "dense_adjacency"),
                               ("pipeline", "dense_adjacency")],
    "graphs.save_snapshots": [("pipeline", "save_snapshots")],
    "svd_embed.series": [("pipeline", "rerun_svd_series"), ("svd_embed", "rerun_svd_series")],
    "svd_embed.update": [("svd_embed", "incremental_update")],
    "svd_embed.delta_factor": [("svd_embed", "delta_factor")],
    "svd_embed.bound": [("svd_embed", "loss_lower_bound")],
    "svd_embed.batch_embed": [("svd_embed", "optimal_svd_embed")],
    "numerics.truncated_svd": [("svd_embed", "truncated_svd")],
    "ae.train": [("ae", "train_dense")],
    "ae.encode": [("ae", "encode")],
    "ae.reconstruct": [("pipeline", "reconstruct")],
    "kernels.affine_sigmoid": [("kernels", "affine_sigmoid")],
    "kernels.sigmoid_grad": [("kernels", "sigmoid_grad")],
    "kernels.weighted_error_grad": [("kernels", "weighted_error_grad")],
    "evaluation.ranking": [("evaluation", "_ranking_report")],
    "evaluation.candidate_pairs": [("evaluation", "candidate_pairs")],
    "evaluation.map": [("evaluation", "mean_average_precision")],
    "evaluation.precision": [("evaluation", "precision_at_k")],
    "evaluation.classification": [("pipeline", "node_classification")],
    "evaluation.projection": [("pipeline", "export_projection")],
    "series.save": [("pipeline", "save_embedding_series")],
    "pipeline.prepare_data": [("pipeline", "prepare_data")],
    "pipeline.embed": [("pipeline", "embed_series")],
    "pipeline.write": [("pipeline", "_write")],
    **{f"pipeline.task.{t}": [("pipeline", f"task_{t}")] for t in TASKS},
}

# per-layer call counts: metric -> span
CALL_COUNTS = {
    "graphs.edge_delta_calls": "graphs.edge_delta",
    "graphs.dense_adjacency_calls": "graphs.dense_adjacency",
    "svd_embed.updates": "svd_embed.update",
    "svd_embed.batch_embeds": "svd_embed.batch_embed",
    "numerics.truncated_svd_calls": "numerics.truncated_svd",
    "ae.train_calls": "ae.train",
    "kernels.affine_sigmoid_calls": "kernels.affine_sigmoid",
    "pipeline.embed_calls": "pipeline.embed",
}


class Tracer:
    """Wraps the TRACED functions and keeps their spans and counters."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []
        self.counters = {"graphs.delta_entries": 0, "graphs.bytes_written": 0,
                         "series.bytes_written": 0, "evaluation.pairs_ranked": 0,
                         "ae.epochs": 0, "ae.rows": 0, "pipeline.snapshots_embedded": 0}
        self.series_length = None
        self.update_widths = []
        self._update_q = []
        self.restart_logs = []

    def install(self) -> None:
        for name, sites in TRACED.items():
            for module_name, attr in sites:
                module = importlib.import_module(f"dynembed.{module_name}")
                setattr(module, attr, self._wrap(name, getattr(module, attr)))

    def _wrap(self, name, fn):
        probe = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    # Counters, taken when the wrapped call returns. Each is O(1) per call
    # except a stat() of the file just written.
    def _after_graphs_edge_delta(self, args, delta):
        self.counters["graphs.delta_entries"] += (
            len(delta.added) + len(delta.removed) + len(delta.reweighted))

    def _after_graphs_save_snapshots(self, args, _):
        self.counters["graphs.bytes_written"] += os.path.getsize(args[1])

    def _after_svd_embed_update(self, args, _):
        _, p, q, _ = args
        self.update_widths.append(p.shape[1])
        self._update_q.append(q)

    def _after_svd_embed_series(self, args, result):
        self.restart_logs.append(result[1])

    def _after_ae_train(self, args, _):
        x, _, cfg = args[:3]
        self.counters["ae.epochs"] += cfg.n_iter
        self.counters["ae.rows"] += x.shape[0] * cfg.n_iter

    def _after_evaluation_ranking(self, args, _):
        if args[1]:
            self.counters["evaluation.pairs_ranked"] += len(args[2])

    def _after_series_save(self, args, paths):
        self.counters["series.bytes_written"] += sum(os.path.getsize(p) for p in paths)

    def _after_pipeline_embed(self, args, _):
        if self.series_length is None:
            self.series_length = len(args[1])
        self.counters["pipeline.snapshots_embedded"] += len(args[1])

    def export(self, run_start: float) -> dict:
        """Spans relative to run_start, counters, and the deferred probes.

        The rank of Q equals the rank of the delta P Q^T, since P holds one
        indicator column per touched row and so has full column rank.
        """
        ranks = [int(np.linalg.matrix_rank(q)) if q.shape[1] else 0 for q in self._update_q]
        first_log = self.restart_logs[0] if self.restart_logs else []
        return {
            "run_id": self.run_id,
            "spans": [[n, s - run_start, e - run_start, p] for n, s, e, p in self.spans],
            "counters": self.counters,
            "series_length": self.series_length,
            "update_widths": self.update_widths,
            "update_ranks": ranks,
            # the series pipeline.embed_series returned first is the one
            # written to restart_log.txt
            "restarts": sum(e.restarted for e in first_log),
            "bound_zero_steps": sum(e.bound == 0.0 for e in first_log[1:]),
        }


def layer_metrics(trace: dict, traced_run_s: float, untraced_run_s: float) -> dict:
    """Per-layer metrics of one traced run, by name."""
    spans = trace["spans"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_s[parent] += end - start
    self_s, total_s, calls = {}, {}, {}
    for (name, start, end, _), inner in zip(spans, child_s):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    roots_s = sum(end - start for _, start, end, parent in spans if parent is None)

    counters = trace["counters"]
    widths, ranks = trace["update_widths"], trace["update_ranks"]
    train_s = total_s.get("ae.train", 0.0)
    out = {f"{name}_s": self_s.get(name, 0.0) for name in TRACED}
    out.update({m: calls.get(span, 0) for m, span in CALL_COUNTS.items()})
    out.update({
        "graphs.delta_entries": counters["graphs.delta_entries"],
        "graphs.bytes_written": counters["graphs.bytes_written"],
        "svd_embed.update_width_mean": float(np.mean(widths)) if widths else 0.0,
        "svd_embed.delta_rank_mean": float(np.mean(ranks)) if ranks else 0.0,
        "svd_embed.width_efficiency": sum(ranks) / sum(widths) if sum(widths) else 0.0,
        "svd_embed.restarts": trace["restarts"],
        "svd_embed.bound_zero_steps": trace["bound_zero_steps"],
        "ae.epochs": counters["ae.epochs"],
        "ae.rows_per_s": counters["ae.rows"] / train_s if train_s else 0.0,
        "evaluation.pairs_ranked": counters["evaluation.pairs_ranked"],
        "series.bytes_written": counters["series.bytes_written"],
        "pipeline.reembed_ratio": (counters["pipeline.snapshots_embedded"]
                                   / trace["series_length"]),
        "trace.run_s": traced_run_s,
        "trace.overhead_s": traced_run_s - untraced_run_s,
        "trace.coverage": roots_s / traced_run_s,
    })
    return out
