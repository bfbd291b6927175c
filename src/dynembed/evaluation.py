"""Evaluation tasks: reconstruction, link prediction, classification,
migration proximity, and 2-D projection export.

Ranking metrics are deterministic: pairs are ordered by descending score
with ties broken lexicographically by (u, v), so equal inputs always give
equal reports. MAP skips nodes without true edges; a node's AP denominator
counts all of its true edges, hit or not.

A report ranks keys taken straight from the score matrix and the candidate
mask, -score at each candidate cell and +inf elsewhere (the pair front end
scatters ScoredPairs into the same keys). Row-major cell order is (u, v)
order, so a stable sort of keys is the ranking. MAP sorts each row on its
own, in blocks of rows. precision@k needs only the global top K = max(k):
a partition finds the K-th key, and only the cells up to it, ties
included, are sorted. Both give bitwise what one global sort gave.
"""

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .graphs import GraphSnapshot, SnapshotSequence, edge_delta
from .numerics import pca_project_2d
from .rng import Rng
from .series import EmbeddingSeries, format_rows


class EvalError(RuntimeError):
    pass


@dataclass(frozen=True)
class ScoredPairs:
    """Candidate (u, v) pairs with their scores."""

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
            if pairs.min() < 0:
                raise ValueError("negative node index")
            if _has_duplicate(pairs):
                raise ValueError("duplicate pairs")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return self.pairs.shape[0]


def _has_duplicate(pairs: np.ndarray) -> bool:
    """Whether a row of the (N, 2) pairs repeats."""
    lex = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return bool(np.any(np.all(lex[1:] == lex[:-1], axis=1)))


@dataclass
class EvalReport:
    task: str
    method: str = ""
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


def _pair_array(pairs) -> np.ndarray:
    """A collection of (u, v) pairs as an (m, 2) int64 array."""
    flat = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64)
    return flat.reshape(-1, 2)


# cells per block of rows that MAP sorts at once, so that each of its
# temporaries stays near 256 KiB
_BLOCK_CELLS = 1 << 15


def _rank_arrays(keys: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """The hit mask of the cell keys (the candidates that are true edges) and
    each node's true-edge count, for the true edges (rows[i], cols[i])."""
    hits = np.zeros(keys.shape, dtype=bool)
    hits[rows, cols] = True
    n_true = hits.sum(axis=1)
    hits &= keys < np.inf
    return hits, n_true


def _pair_keys(sp: ScoredPairs, truth):
    """sp's n x n cell keys, -score at each pair's cell and +inf at every
    other, with their hit mask and true-edge counts (_rank_arrays), over
    every node of sp and of the truth pairs."""
    rows, cols = _pair_array(truth).T
    if min(rows.min(initial=0), cols.min(initial=0)) < 0:
        raise ValueError("negative node index in truth")
    n = 1 + int(max(sp.pairs.max(initial=-1), rows.max(initial=-1), cols.max(initial=-1)))
    keys = np.full((n, n), np.inf)
    keys[sp.pairs[:, 0], sp.pairs[:, 1]] = -sp.scores
    return keys, *_rank_arrays(keys, rows, cols)


def _precisions(hits: np.ndarray, k_grid) -> list:
    """Precision@k of a ranked hit vector for each k of k_grid (1 <= k <= len)."""
    found = np.cumsum(hits, dtype=np.int64)
    return [int(found[k - 1]) / k for k in k_grid]


def _top_precisions(keys: np.ndarray, hits: np.ndarray, k_grid) -> list:
    """Precision@k for each k of the ascending k_grid, every k at most the
    number of finite keys. Only the cells whose key is at most the K-th
    smallest, K = max(k_grid), are sorted; taking every cell tied with the
    K-th keeps the (u, v) order among them."""
    if not k_grid:
        return []
    k_max = k_grid[-1]
    flat = keys.reshape(-1)
    kth = np.partition(flat, k_max - 1)[k_max - 1]
    top = np.flatnonzero(flat <= kth)
    top = top[np.argsort(flat[top], kind="stable")[:k_max]]
    return _precisions(hits.reshape(-1)[top], k_grid)


def _row_aps(keys: np.ndarray, hits: np.ndarray, n_true: np.ndarray) -> np.ndarray:
    """AP of every row u of the cell keys with n_true[u] > 0, in row order.

    A stable sort of the row ranks its cells, candidates first, and AP reads
    only the ranks of the hits. Where a row's finite keys are distinct, a
    hit's rank is its key's place in the row sorted by numpy's faster
    unstable sort, found by searchsorted; only rows with tied finite keys
    are argsorted stably. A row's AP adds found/rank at each of its hits,
    one at a time in rank order (a cumulative sum over the block's hits,
    zero-padded at the end of each row; np.sum would group the terms
    pairwise and could change the last bits), and divides by all of its
    true edges, hit or not. A row without hits scores 0.0.
    """
    rows = np.flatnonzero(n_true)
    width = keys.shape[1]
    total = np.empty(len(rows))
    step = max(1, _BLOCK_CELLS // width)
    for at in range(0, len(rows), step):
        mine = rows[at:at + step]
        block = keys[mine]
        ranked = np.sort(block, axis=1)
        tied = ((ranked[:, 1:] == ranked[:, :-1]) & (ranked[:, 1:] < np.inf)).any(axis=1)
        r, c = np.nonzero(hits[mine])  # row by row, so each row's hits are contiguous
        counts = np.bincount(r, minlength=len(mine))
        starts = np.cumsum(counts) - counts
        place = np.empty(len(r), dtype=np.int64)  # 0-based rank, ascending in each row
        for i in np.flatnonzero(counts):
            span = slice(starts[i], starts[i] + counts[i])
            if tied[i]:
                order = np.argsort(block[i], kind="stable")
                place[span] = np.flatnonzero(hits[mine[i]][order])
            else:
                place[span] = np.sort(np.searchsorted(ranked[i], block[i, c[span]]))
        found = np.arange(1, len(r) + 1) - starts[r]
        terms = np.zeros((len(mine), max(1, int(found.max(initial=0)))))
        # adding a zero term leaves a sum of positive terms bitwise unchanged
        terms[r, found - 1] = found / (place + 1)
        total[at:at + step] = np.cumsum(terms, axis=1)[:, -1]
    return total / n_true[rows]


def precision_at_k(sp: ScoredPairs, truth, k: int) -> float:
    """Fraction of the top-k ranked pairs present in the truth edge set."""
    if k < 1 or k > len(sp):
        raise EvalError(f"k={k} outside [1, {len(sp)}]")
    keys, hits, _ = _pair_keys(sp, truth)
    return _top_precisions(keys, hits, [k])[0]


def average_precision(sp: ScoredPairs, truth) -> float:
    """AP over one node's candidate list: sum of precision@rank at each hit,
    divided by the node's total number of true edges."""
    keys, hits, n_true = _pair_keys(sp, truth)
    n_truth = int(n_true.sum())
    if not n_truth:
        raise EvalError("average_precision needs at least one true edge")
    # all cells in one row: the whole list in ranking order
    return float(_row_aps(keys.reshape(1, -1), hits.reshape(1, -1), np.array([n_truth]))[0])


def mean_average_precision(sp: ScoredPairs, truth) -> float:
    """MAP over source nodes that have at least one true edge."""
    keys, hits, n_true = _pair_keys(sp, truth)
    if not n_true.any():
        raise EvalError("no node has a true edge")
    return float(np.mean(_row_aps(keys, hits, n_true)))


def static_lp_split(g: GraphSnapshot, hide_fraction: float, rng: Rng):
    """Hide a uniform ceil(fraction * |E|) sample of edges.

    The draw picks positions in g's (u, v) order. Returns (train graph,
    graph of the hidden edges). Train nodes may become isolated.
    """
    if not 0 < hide_fraction < 1:
        raise ValueError("hide_fraction must be in (0, 1)")
    if len(g) < 2:
        raise EvalError("need at least 2 edges to split")
    hide = np.zeros(len(g), dtype=bool)
    hide[rng.choice_no_replace(np.arange(len(g)), math.ceil(hide_fraction * len(g)))] = True
    return tuple(GraphSnapshot(g.n, g.rows[m], g.cols[m], g.weights[m]) for m in (~hide, hide))


def _candidates(n: int, exclude: GraphSnapshot | None = None) -> np.ndarray:
    """The n x n candidate mask: every cell (u, v), u != v, minus the edges
    of an optional snapshot on the same n nodes."""
    keep = ~np.eye(n, dtype=bool)
    if exclude is not None:
        if exclude.n != n:
            raise ValueError(f"exclusions over {exclude.n} nodes, candidates over {n}")
        keep[exclude.rows, exclude.cols] = False
    return keep


def candidate_pairs(n: int, exclude: GraphSnapshot | None = None) -> np.ndarray:
    """The candidate pairs of _candidates, in (u, v) lexicographic order."""
    return np.argwhere(_candidates(n, exclude))


def _ranking_report(scores: np.ndarray, truth: GraphSnapshot, candidates: np.ndarray,
                    k_grid, **fields) -> EvalReport:
    """precision@k for every k of the grid and MAP, from the keys -score at
    each cell of the candidate mask and +inf elsewhere; the edges of truth
    are the true pairs."""
    report = EvalReport(k_grid=sorted(k_grid), **fields)
    if not truth:
        report.empty_truth = True
        report.k_grid = []
        return report
    keys = np.negative(scores, where=candidates, out=np.full(candidates.shape, np.inf))
    n_cand = np.count_nonzero(candidates)
    if np.count_nonzero(np.isfinite(keys)) != n_cand:
        raise ValueError("scores must be finite")
    # grid entries beyond the candidate count are dropped, not clamped
    report.k_grid = [k for k in sorted(k_grid) if 1 <= k <= n_cand]
    hits, n_true = _rank_arrays(keys, truth.rows, truth.cols)
    report.precision_at_k = _top_precisions(keys, hits, report.k_grid)
    report.map = float(np.mean(_row_aps(keys, hits, n_true)))
    return report


def reconstruction_eval(scores: np.ndarray, g: GraphSnapshot, k_grid) -> EvalReport:
    """Rank all ordered non-diagonal pairs against the snapshot's own edges."""
    if scores.shape != (g.n, g.n):
        raise ValueError("score matrix shape mismatch")
    return _ranking_report(scores, g, _candidates(g.n), k_grid, task="reconstruction")


def static_lp_eval(scores: np.ndarray, train: GraphSnapshot, hidden: GraphSnapshot,
                   k_grid) -> EvalReport:
    """Rank non-edges of the train graph against the hidden edges."""
    if scores.shape != (train.n, train.n):
        raise ValueError("score matrix shape mismatch")
    return _ranking_report(scores, hidden, _candidates(train.n, train), k_grid, task="static_lp")


def temporal_lp_eval(scores: np.ndarray, seq: SnapshotSequence, t: int, k_grid,
                     mode: str = "all") -> EvalReport:
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
    if mode == "all":
        truth, exclude = g_next, None
    else:
        new = edge_delta(g_t, g_next).added
        truth, exclude = GraphSnapshot(g_t.n, new["u"], new["v"], new["w"]), g_t
    return _ranking_report(scores, truth, _candidates(g_t.n, exclude), k_grid,
                           task="temporal_lp", mode=mode)


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
    nodes = np.arange(y.shape[0])
    flags = np.isin(nodes, [int(m) for m in migrated])
    rows = np.column_stack([nodes, coords, labels_t, flags]).astype(np.float64)
    with open(path, "wb") as fh:
        fh.write(format_rows(rows))
