"""Evaluation tasks: reconstruction, link prediction, classification,
migration proximity, and 2-D projection export.

Ranking metrics are deterministic: pairs are ordered by descending score
with ties broken lexicographically by (u, v), so equal inputs always give
equal reports. MAP skips nodes without true edges; a node's AP denominator
counts all of its true edges, hit or not.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .graphs import GraphSnapshot, SnapshotSequence
from .numerics import pca_project_2d
from .rng import Rng
from .series import EmbeddingSeries


class EvalError(RuntimeError):
    pass


@dataclass(frozen=True)
class ScoredPairs:
    """Candidate (u, v) pairs with scores, in a canonical ranking order."""

    pairs: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if pairs.shape[0] != scores.shape[0]:
            raise ValueError("pairs/scores length mismatch")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if pairs.shape[0]:
            keys = pairs[:, 0].astype(np.int64) * (pairs.max() + 1) + pairs[:, 1]
            if np.unique(keys).shape[0] != keys.shape[0]:
                raise ValueError("duplicate pairs")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return self.pairs.shape[0]

    def ranking(self) -> np.ndarray:
        """Index order: descending score, ties by (u, v) lexicographic."""
        return np.lexsort((self.pairs[:, 1], self.pairs[:, 0], -self.scores))

    def ordered_pairs(self) -> np.ndarray:
        return self.pairs[self.ranking()]


@dataclass
class EvalReport:
    task: str
    method: str
    seed: int = 0
    config_digest: str = ""
    mode: str | None = None
    k_grid: list = field(default_factory=list)
    precision_at_k: list | None = None
    map: float | None = None
    micro_f1: float | None = None
    macro_f1: float | None = None
    stat: float | None = None
    empty_truth: bool = False

    def to_dict(self) -> dict:
        out = {
            "task": self.task,
            "method": self.method,
            "seed": self.seed,
            "config_digest": self.config_digest,
        }
        if self.mode is not None:
            out["mode"] = self.mode
        out["k_grid"] = list(self.k_grid)
        out["precision_at_k"] = self.precision_at_k
        out["map"] = self.map
        if self.micro_f1 is not None or self.task == "classification":
            out["micro_f1"] = self.micro_f1
            out["macro_f1"] = self.macro_f1
        if self.stat is not None or self.task == "migration_stat":
            out["stat"] = self.stat
        out["empty_truth"] = self.empty_truth
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def save_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_json())


def precision_at_k(sp: ScoredPairs, truth, k: int) -> float:
    """Fraction of the top-k ranked pairs present in the truth edge set."""
    if k < 1 or k > len(sp):
        raise EvalError(f"k={k} outside [1, {len(sp)}]")
    top = sp.ordered_pairs()[:k]
    truth = set(truth)
    hits = sum((int(u), int(v)) in truth for u, v in top)
    return hits / k


def average_precision(sp: ScoredPairs, truth) -> float:
    """AP over one node's candidate list: sum of precision@rank at each hit,
    divided by the node's total number of true edges."""
    truth = set(truth)
    if not truth:
        raise EvalError("average_precision needs at least one true edge")
    ordered = sp.ordered_pairs()
    hits = np.array([(int(u), int(v)) in truth for u, v in ordered], dtype=np.float64)
    return kernels.average_precision(hits, len(truth))


def mean_average_precision(sp: ScoredPairs, truth) -> float:
    """MAP over source nodes that have at least one true edge."""
    truth = {(int(u), int(v)) for u, v in truth}
    n_true = {}
    for u, _ in truth:
        n_true[u] = n_true.get(u, 0) + 1
    if not n_true:
        raise EvalError("no node has a true edge")
    order = sp.ranking()
    sources = sp.pairs[order, 0]
    aps = []
    for u in sorted(n_true):
        mask = sources == u
        ranked = sp.pairs[order[mask]]
        hits = np.array([(int(a), int(b)) in truth for a, b in ranked], dtype=np.float64)
        aps.append(kernels.average_precision(hits, n_true[u]) if len(hits) else 0.0)
    return float(np.mean(aps))


def static_lp_split(g: GraphSnapshot, hide_fraction: float, rng: Rng):
    """Hide a uniform ceil(fraction * |E|) sample of edges.

    Returns (train graph, hidden edge set). Train nodes may become isolated.
    """
    if not 0 < hide_fraction < 1:
        raise ValueError("hide_fraction must be in (0, 1)")
    edges = g.edges()
    if len(edges) < 2:
        raise EvalError("need at least 2 edges to split")
    n_hide = math.ceil(hide_fraction * len(edges))
    hidden_idx = set(rng.choice_no_replace(np.arange(len(edges)), n_hide).tolist())
    hidden = frozenset((u, v) for i, (u, v, _) in enumerate(edges) if i in hidden_idx)
    train_edges = [(u, v, w) for i, (u, v, w) in enumerate(edges) if i not in hidden_idx]
    return GraphSnapshot(g.n, train_edges), hidden


def candidate_pairs(n: int, exclude=None) -> np.ndarray:
    """All ordered pairs (u, v), u != v, minus an optional excluded edge set."""
    u, v = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    pairs = np.stack([u.ravel(), v.ravel()], axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if exclude:
        keep = [i for i, (a, b) in enumerate(pairs) if (int(a), int(b)) not in exclude]
        pairs = pairs[keep]
    return pairs


def _ranking_report(scores: np.ndarray, truth, pairs: np.ndarray, k_grid, **fields) -> EvalReport:
    report = EvalReport(k_grid=sorted(k_grid), **fields)
    if not truth:
        report.empty_truth = True
        report.k_grid = []
        return report
    sp = ScoredPairs(pairs, scores[pairs[:, 0], pairs[:, 1]])
    # grid entries beyond the candidate count are dropped, not clamped
    report.k_grid = [k for k in sorted(k_grid) if 1 <= k <= len(sp)]
    report.precision_at_k = [precision_at_k(sp, truth, k) for k in report.k_grid]
    report.map = mean_average_precision(sp, truth)
    return report


def reconstruction_eval(scores: np.ndarray, g: GraphSnapshot, k_grid, method: str = "",
                        seed: int = 0, config_digest: str = "") -> EvalReport:
    """Rank all ordered non-diagonal pairs against the snapshot's own edges."""
    if scores.shape != (g.n, g.n):
        raise ValueError("score matrix shape mismatch")
    truth = set(g.edge_pairs())
    pairs = candidate_pairs(g.n)
    return _ranking_report(scores, truth, pairs, k_grid, task="reconstruction",
                           method=method, seed=seed, config_digest=config_digest)


def static_lp_eval(scores: np.ndarray, train: GraphSnapshot, hidden, k_grid,
                   method: str = "", seed: int = 0, config_digest: str = "") -> EvalReport:
    """Rank non-edges of the train graph against the hidden edges."""
    if scores.shape != (train.n, train.n):
        raise ValueError("score matrix shape mismatch")
    truth = set(hidden)
    pairs = candidate_pairs(train.n, exclude=set(train.edge_pairs()))
    return _ranking_report(scores, truth, pairs, k_grid, task="static_lp",
                           method=method, seed=seed, config_digest=config_digest)


def temporal_lp_eval(scores: np.ndarray, seq: SnapshotSequence, t: int, k_grid,
                     mode: str = "all", method: str = "", seed: int = 0,
                     config_digest: str = "") -> EvalReport:
    """Score pairs at t+1 from a model that saw snapshots up to t.

    mode="all": truth is every edge of G_{t+1}, candidates all u != v.
    mode="new": truth is edges of G_{t+1} absent from G_t, candidates
    exclude G_t's edges. Empty truth flags the report instead of erroring.
    """
    if mode not in ("all", "new"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 <= t < len(seq) - 1:
        raise EvalError(f"t+1={t + 1} out of range")
    g_t, g_next = seq[t], seq[t + 1]
    if scores.shape != (g_t.n, g_t.n):
        raise ValueError("score matrix shape mismatch")
    cur_edges = set(g_t.edge_pairs())
    next_edges = set(g_next.edge_pairs())
    if mode == "all":
        truth, exclude = next_edges, None
    else:
        truth, exclude = next_edges - cur_edges, cur_edges
    pairs = candidate_pairs(g_t.n, exclude=exclude)
    return _ranking_report(scores, truth, pairs, k_grid, task="temporal_lp", mode=mode,
                           method=method, seed=seed, config_digest=config_digest)


def _stratified_split(labels: np.ndarray, train_frac: float, rng: Rng):
    train_idx, test_idx = [], []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        n_train = int(round(train_frac * len(members)))
        if n_train == 0:
            raise EvalError(f"class {int(c)} absent from the training split")
        picked = members[rng.permutation(len(members))]
        train_idx.extend(picked[:n_train].tolist())
        test_idx.extend(picked[n_train:].tolist())
    return np.array(sorted(train_idx)), np.array(sorted(test_idx))


def _f1_scores(y_true: np.ndarray, y_pred: np.ndarray, classes: np.ndarray):
    tp = fp = fn = 0
    per_class = []
    for c in classes:
        c_tp = int(np.sum((y_pred == c) & (y_true == c)))
        c_fp = int(np.sum((y_pred == c) & (y_true != c)))
        c_fn = int(np.sum((y_pred != c) & (y_true == c)))
        tp, fp, fn = tp + c_tp, fp + c_fp, fn + c_fn
        denom = 2 * c_tp + c_fp + c_fn
        per_class.append(2 * c_tp / denom if denom else 0.0)
    micro_denom = 2 * tp + fp + fn
    micro = 2 * tp / micro_denom if micro_denom else 0.0
    return micro, float(np.mean(per_class))


def node_classification(emb: np.ndarray, labels, train_frac: float, seed: int = 0):
    """One-vs-rest logistic regression on a seeded stratified split.

    Full-batch gradient descent, 500 iterations at rate 0.1, L2 weight 1e-4
    on the weight vector (bias unregularized). Returns (micro_f1, macro_f1).
    """
    emb = np.asarray(emb, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if emb.shape[0] != labels.shape[0]:
        raise ValueError("embedding/label length mismatch")
    classes = np.unique(labels)
    if classes.shape[0] < 2:
        raise EvalError("need at least 2 classes")
    if not 0 < train_frac < 1:
        raise ValueError("train_frac must be in (0, 1)")
    train_idx, test_idx = _stratified_split(labels, train_frac, Rng(seed))
    x_tr, y_tr = emb[train_idx], labels[train_idx]
    x_te, y_te = emb[test_idx], labels[test_idx]
    n_tr = x_tr.shape[0]

    lr, l2, iters = 0.1, 1e-4, 500
    scores_te = np.empty((x_te.shape[0], classes.shape[0]))
    for ci, c in enumerate(classes):
        y_bin = (y_tr == c).astype(np.float64)
        w = np.zeros(emb.shape[1])
        b = 0.0
        for _ in range(iters):
            p = kernels.sigmoid(x_tr @ w + b)
            err = p - y_bin
            w -= lr * (x_tr.T @ err / n_tr + 2.0 * l2 * w)
            b -= lr * float(err.mean())
        scores_te[:, ci] = x_te @ w + b
    y_pred = classes[np.argmax(scores_te, axis=1)]
    return _f1_scores(y_te, y_pred, classes)


def migration_proximity_stat(series: EmbeddingSeries, labels_t: np.ndarray,
                             migrations_t, t: int) -> float:
    """Fraction of migrating nodes embedded strictly closer to their
    destination community's centroid than to their origin's.

    migrations_t is a list of (node, origin, destination) records; the
    caller picks the pairing of records to evaluation time (same-step
    arrival, or records of t+1 against embeddings at t for the
    anticipation reading). Centroids use Y_src rows of the non-migrating
    members at t; ties (for instance all-zero embeddings) count as
    failures under the strict inequality.
    """
    if not migrations_t:
        raise EvalError("no migrated nodes at this step")
    y = series.src_at(t)
    labels_t = np.asarray(labels_t, dtype=np.int64)
    moved = {int(node) for node, _, _ in migrations_t}
    centroids = {}
    for c in {int(old) for _, old, _ in migrations_t} | {int(new) for _, _, new in migrations_t}:
        members = [i for i in np.flatnonzero(labels_t == c) if i not in moved]
        if not members:
            raise EvalError(f"community {c} has no non-migrated members at t={t}")
        centroids[c] = y[members].mean(axis=0)
    closer = 0
    for node, old, new in migrations_t:
        d_new = float(np.linalg.norm(y[int(node)] - centroids[int(new)]))
        d_old = float(np.linalg.norm(y[int(node)] - centroids[int(old)]))
        closer += d_new < d_old
    return closer / len(migrations_t)


def export_projection(series: EmbeddingSeries, t: int, labels_t, migrated, path) -> None:
    """Write `node x y label migrated` lines of the 2-D PCA projection at t."""
    y = series.src_at(t)
    labels_t = np.asarray(labels_t, dtype=np.int64)
    if y.shape[0] != labels_t.shape[0]:
        raise ValueError("embedding/label length mismatch")
    if y.shape[0] == 1:
        coords = np.zeros((1, 2))
    else:
        coords = pca_project_2d(y)
    migrated = {int(m) for m in migrated}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for node in range(y.shape[0]):
            flag = 1 if node in migrated else 0
            fh.write(f"{node} {coords[node, 0]:.17g} {coords[node, 1]:.17g} "
                     f"{int(labels_t[node])} {flag}\n")
