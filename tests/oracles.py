"""Independent reference implementations used as test oracles.

Everything here is written the dumb, obvious way (pure Python loops, the
textbook formula) and deliberately shares no code with the package. The
graph model as it was before a snapshot became sorted edge arrays is kept as
SnapshotRef, a dict of (u, v) -> w, with the delta, dense adjacency, text
writer and static link prediction split built on it. The exceptions are at
the end: the ranking evaluation as it was before it was vectorised, which
fills the package's report type; the plain incremental SVD fold, built from
the package's update step with no restart test; Brand's additive update,
the paper's incremental step that the Ritz step replaced, and two reference
folds, Brand's and a Ritz fold rebuilt from scratch at every step, both
starting from the package's batch SVD and delta factor; and the prefix
re-embed,
which runs the package's methods on a prefix of the sequence, as link
prediction once did; and the autoencoder's sigmoid, forward pass, gradient
and weight step as the numpy expressions they were before the kernels reused
their buffers, on the package's parameter type; and the training loop as
it was when every epoch ended with a full forward pass, on the package's
gradient; and the model file reader,
which only the tests use, also on that type; and the truncated SVD as the
full LAPACK decomposition (gesdd) cut to its top d triples, on the package's
factor type; and the SBM snapshot as one dense n x n draw, and the
diminishing-community SBM as it was when every step rewrote a dense
adjacency matrix, on the package's Rng and series types.
"""

import itertools
import math

import numpy as np

from dynembed import ae, svd_embed
from dynembed.evaluation import EvalError, EvalReport, ScoredPairs, static_lp_split
from dynembed.graphs import GraphSnapshot, SnapshotSequence, dense_adjacency, edge_delta
from dynembed.numerics import TruncatedSvd, truncated_svd
from dynembed.rng import Rng
from dynembed.sbm import DynamicSbmSeries

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def splitmix64_ref(seed: int, count: int, start: int = 0) -> list:
    """SplitMix64 outputs for draw indices start..start+count-1, in pure
    Python integer arithmetic."""
    out = []
    for i in range(start, start + count):
        z = (seed + (i + 1) * GOLDEN) & MASK64
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        out.append(z ^ (z >> 31))
    return out


def brute_ranking(pairs, scores):
    """Pairs sorted by (-score, u, v) via Python's sort."""
    rows = [(float(s), int(u), int(v)) for (u, v), s in zip(pairs, scores)]
    rows.sort(key=lambda r: (-r[0], r[1], r[2]))
    return [(u, v) for _, u, v in rows]


def brute_precision_at_k(pairs, scores, truth, k):
    ranked = brute_ranking(pairs, scores)
    truth = set(truth)
    return sum(1 for p in ranked[:k] if p in truth) / k


def brute_average_precision(pairs, scores, truth):
    """AP of one candidate list; denominator counts all true edges."""
    ranked = brute_ranking(pairs, scores)
    truth = set(truth)
    total = 0.0
    found = 0
    for rank, p in enumerate(ranked, start=1):
        if p in truth:
            found += 1
            total += found / rank
    return total / len(truth)


def brute_map(pairs, scores, truth):
    """MAP over source nodes with at least one true edge."""
    truth = {(int(u), int(v)) for u, v in truth}
    sources = sorted({u for u, _ in truth})
    aps = []
    for u in sources:
        sub = [(p, s) for p, s in zip(pairs, scores) if int(p[0]) == u]
        if not sub:
            aps.append(0.0)
            continue
        sub_pairs = [p for p, _ in sub]
        sub_scores = [s for _, s in sub]
        sub_truth = {(a, b) for a, b in truth if a == u}
        aps.append(brute_average_precision(sub_pairs, sub_scores, sub_truth))
    return float(np.mean(np.array(aps)))


def fd_gradient(params, x, targets, cfg, h=1e-5):
    """Central finite differences of ae_loss_ref over every weight and bias."""
    grads_w, grads_b = [], []
    for mats, grads in ((params.weights, grads_w), (params.biases, grads_b)):
        for m in mats:
            g = np.zeros_like(m)
            it = np.nditer(m, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = m[idx]
                m[idx] = orig + h
                up = ae_loss_ref(params, x, targets, cfg)
                m[idx] = orig - h
                down = ae_loss_ref(params, x, targets, cfg)
                m[idx] = orig
                g[idx] = (up - down) / (2.0 * h)
            grads.append(g)
    return grads_w, grads_b


def random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix from the QR of a Gaussian draw."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def write_matrix_ref(path, m) -> None:
    """The embedding text format written one float at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def save_mlp_params_ref(params, path) -> None:
    """The model text format written one float at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{params.n_layers}\n")
        for w, b in zip(params.weights, params.biases):
            fh.write(f"{w.shape[0]} {w.shape[1]}\n")
            for row in w:
                fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")
            fh.write(" ".join(f"{x:.17g}" for x in b) + "\n")


def save_restart_log_ref(log, path) -> None:
    """The restart log written one entry at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e in log:
            fh.write(f"{e.t} {int(e.restarted)} {e.cur_loss:.17g} {e.bound:.17g}\n")


def projection_lines_ref(coords, labels_t, migrated) -> str:
    """The projection text format written one node at a time."""
    return "".join(f"{node} {coords[node, 0]:.17g} {coords[node, 1]:.17g} "
                   f"{int(labels_t[node])} {1 if node in migrated else 0}\n"
                   for node in range(coords.shape[0]))


def save_labels_ref(series, path) -> None:
    """The labels text format written one node at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t, labels in enumerate(series.labels):
            for node, c in enumerate(labels.tolist()):
                fh.write(f"{t} {node} {c}\n")


def save_migrations_ref(series, path) -> None:
    """The migrations text format written one record at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t, step in enumerate(series.migrations):
            for node, old, new in sorted(step):
                fh.write(f"{t} {node} {old} {new}\n")


def save_snapshots_ref(snapshots, path) -> None:
    """The snapshot text format of SnapshotRefs, written one edge line at a
    time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(snapshots)} {snapshots[0].n}\n")
        for t, g in enumerate(snapshots):
            for u, v, w in g.edges():
                fh.write(f"{t} {u} {v} {w:.17g}\n")


def row_indicator_factor(delta, n: int):
    """Delta as P Q^T with one column per touched row: P[:, j] = e_u and
    Q[:, j] = the change of row u."""
    added, removed, reweighted = (x.tolist() for x in (delta.added, delta.removed,
                                                      delta.reweighted))
    rows = sorted({e[0] for e in added + removed + reweighted})
    p = np.zeros((n, len(rows)))
    q = np.zeros((n, len(rows)))
    col = {u: j for j, u in enumerate(rows)}
    for j, u in enumerate(rows):
        p[u, j] = 1.0
    for u, v, w in added:
        q[v, col[u]] += w
    for u, v, w_old in removed:
        q[v, col[u]] -= w_old
    for u, v, w_old, w_new in reweighted:
        q[v, col[u]] += w_new - w_old
    return p, q


def brute_min_cover_size(edges) -> int:
    """Size of a minimum vertex cover of a bipartite graph given as (row, col)
    edges, by trying every subset of rows and columns from the smallest up."""
    edges = set(edges)
    vertices = sorted({("r", u) for u, _ in edges} | {("c", v) for _, v in edges})
    for size in range(len(vertices) + 1):
        for chosen in itertools.combinations(vertices, size):
            chosen = set(chosen)
            if all(("r", u) in chosen or ("c", v) in chosen for u, v in edges):
                return size
    raise AssertionError("unreachable: all vertices always cover")


def apply_delta(g, delta):
    """Snapshot g with an edge_delta applied, one edge at a time; raises
    ValueError on an entry that does not match g."""
    adj = {(u, v): w for u, v, w in zip(g.rows.tolist(), g.cols.tolist(), g.weights.tolist())}
    for u, v, w_old in delta.removed.tolist():
        if adj.get((u, v)) != w_old:
            raise ValueError(f"removed edge ({u},{v}) does not match snapshot")
        del adj[(u, v)]
    for u, v, w_old, w_new in delta.reweighted.tolist():
        if adj.get((u, v)) != w_old:
            raise ValueError(f"reweighted edge ({u},{v}) does not match snapshot")
        adj[(u, v)] = w_new
    for u, v, w in delta.added.tolist():
        if (u, v) in adj:
            raise ValueError(f"added edge ({u},{v}) already present")
        adj[(u, v)] = w
    return snapshot(g.n, ((u, v, w) for (u, v), w in adj.items()))


def snapshot(n: int, edges=()):
    """GraphSnapshot of (u, v, w) triples in any order."""
    edges = list(edges)
    return GraphSnapshot(n, [e[0] for e in edges], [e[1] for e in edges],
                         [e[2] for e in edges])


def snapshot_from_dense(adj):
    """GraphSnapshot of a square adjacency matrix's non-zero entries."""
    us, vs = np.nonzero(adj)
    return GraphSnapshot(adj.shape[0], us, vs, adj[us, vs])


# --- the graph model as a dict of (u, v) -> w ---------------------------


class SnapshotRef:
    """One weighted directed graph as a (u, v) -> w dict, checked one edge
    at a time."""

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("node count must be non-negative")
        self.n = int(n)
        adj = {}
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) outside node range [0,{self.n})")
            if not math.isfinite(w) or w <= 0.0:
                raise ValueError(f"edge ({u},{v}) has non-positive weight {w}")
            if (u, v) in adj:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[(u, v)] = w
        self.adj = adj

    def edges(self):
        """Edges as (u, v, w) triples sorted by (u, v)."""
        return [(u, v, self.adj[(u, v)]) for u, v in sorted(self.adj)]


def edge_delta_ref(prev, next_):
    """(added, removed, reweighted) frozensets of (u, v, w) and
    (u, v, w_old, w_new) triples between two SnapshotRefs."""
    a, b = prev.adj, next_.adj
    added, removed, reweighted = [], [], []
    for key, w in b.items():
        if key not in a:
            added.append((*key, w))
        elif a[key] != w:
            reweighted.append((*key, a[key], w))
    for key, w in a.items():
        if key not in b:
            removed.append((*key, w))
    return frozenset(added), frozenset(removed), frozenset(reweighted)


def dense_adjacency_ref(g):
    """Dense adjacency of a SnapshotRef, one edge at a time."""
    a = np.zeros((g.n, g.n))
    for (u, v), w in g.adj.items():
        a[u, v] = w
    return a


def static_lp_split_ref(g, hide_fraction: float, rng):
    """(train SnapshotRef, hidden frozenset of (u, v)) of a SnapshotRef with
    a ceil(fraction * |E|) sample of its sorted edges hidden."""
    if not 0 < hide_fraction < 1:
        raise ValueError("hide_fraction must be in (0, 1)")
    edges = g.edges()
    if len(edges) < 2:
        raise EvalError("need at least 2 edges to split")
    n_hide = math.ceil(hide_fraction * len(edges))
    hidden_idx = set(rng.choice_no_replace(np.arange(len(edges)), n_hide).tolist())
    hidden = frozenset((u, v) for i, (u, v, _) in enumerate(edges) if i in hidden_idx)
    train_edges = [(u, v, w) for i, (u, v, w) in enumerate(edges) if i not in hidden_idx]
    return SnapshotRef(g.n, train_edges), hidden


# --- the ranking evaluation before vectorisation ---------------------------
# One lexsort per metric, a set of truth tuples, and a Python loop per
# candidate pair and per source node.


def hits_average_precision_ref(hits, n_true):
    """Average precision of a ranked 0/1 hit vector against n_true relevant
    items, adding the hit precisions one at a time in rank order."""
    idx = np.flatnonzero(hits)
    if idx.size == 0:
        return 0.0
    total = 0.0
    for found, rank in enumerate((idx + 1.0).tolist(), start=1):
        total += found / rank
    return total / n_true


def _ranked_pairs_ref(sp):
    return sp.pairs[np.lexsort((sp.pairs[:, 1], sp.pairs[:, 0], -sp.scores))]


def precision_at_k_ref(sp, truth, k):
    if k < 1 or k > len(sp):
        raise EvalError(f"k={k} outside [1, {len(sp)}]")
    top = _ranked_pairs_ref(sp)[:k]
    truth = set(truth)
    hits = sum((int(u), int(v)) in truth for u, v in top)
    return hits / k


def mean_average_precision_ref(sp, truth):
    truth = {(int(u), int(v)) for u, v in truth}
    n_true = {}
    for u, _ in truth:
        n_true[u] = n_true.get(u, 0) + 1
    if not n_true:
        raise EvalError("no node has a true edge")
    ranked = _ranked_pairs_ref(sp)
    aps = []
    for u in sorted(n_true):
        mine = ranked[ranked[:, 0] == u]
        hits = np.array([(int(a), int(b)) in truth for a, b in mine], dtype=np.float64)
        aps.append(hits_average_precision_ref(hits, n_true[u]) if len(hits) else 0.0)
    return float(np.mean(aps))


def candidate_pairs_ref(n, exclude=None):
    u, v = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    pairs = np.stack([u.ravel(), v.ravel()], axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if exclude:
        keep = [i for i, (a, b) in enumerate(pairs) if (int(a), int(b)) not in exclude]
        pairs = pairs[keep]
    return pairs


def ranking_report_ref(scores, truth, pairs, k_grid, **fields):
    report = EvalReport(k_grid=sorted(k_grid), **fields)
    if not truth:
        report.empty_truth = True
        report.k_grid = []
        return report
    sp = ScoredPairs(pairs, scores[pairs[:, 0], pairs[:, 1]])
    report.k_grid = [k for k in sorted(k_grid) if 1 <= k <= len(sp)]
    report.precision_at_k = [precision_at_k_ref(sp, truth, k) for k in report.k_grid]
    report.map = mean_average_precision_ref(sp, truth)
    return report


# --- the incremental SVD with no restart test ------------------------------


def plain_incremental_fold(seq, d: int):
    """([(Y_src, Y_tgt) per t], restart log) of a batch SVD of snapshot 0
    followed by one additive update per step, never restarting."""
    _, _, state = svd_embed.optimal_svd_embed(seq[0], d, t=0)
    states = [state]
    for t in range(1, len(seq)):
        p, q = svd_embed.delta_factor(edge_delta(seq[t - 1], seq[t]), seq.n)
        states.append(svd_embed.incremental_update(states[-1], p, q, seq[t]))
    log = [svd_embed.RestartLogEntry(t, False, s.cur_loss, svd_embed.loss_lower_bound(s))
           for t, s in enumerate(states)]
    return [s.embedding() for s in states], log


# Brand's additive update as the package ran it before the Ritz step.
BRAND_RESIDUAL_TOL = 1e-12
BRAND_REORTH_TOL = 1e-11


def _orthonormal_residual(basis, block):
    """Split block into its component in span(basis) and an orthonormal
    remainder: block ~ basis @ coef + q @ r with q^T basis = 0.

    Directions with singular value below BRAND_RESIDUAL_TOL are dropped,
    which also absorbs linearly dependent update columns.
    """
    coef = basis.T @ block
    resid = block - basis @ coef
    # second projection pass for orthogonality at machine precision
    corr = basis.T @ resid
    coef = coef + corr
    resid = resid - basis @ corr
    if resid.shape[1] == 0:
        return coef, np.zeros((basis.shape[0], 0)), np.zeros((0, block.shape[1]))
    u, s, vh = np.linalg.svd(resid, full_matrices=False)
    keep = int(np.sum(s > BRAND_RESIDUAL_TOL))
    q = u[:, :keep]
    r = s[:keep, None] * vh[:keep]
    return coef, q, r


def _reorthogonalized(u, s, v):
    qu, ru = np.linalg.qr(u)
    qv, rv = np.linalg.qr(v)
    f, s2, gh = np.linalg.svd(ru * s @ rv.T)
    return qu @ f, s2, qv @ gh.T


def brand_update_ref(factor, p, q):
    """Top rank-r SVD of U S V^T + P Q^T by Brand's additive update, r being
    the rank of factor.

    The update residuals of P against U and Q against V are orthonormalized,
    an (r+kp) x (r+kq) core matrix is formed from diag(S) plus the projected
    update, and its SVD rotates and re-truncates the factors back to rank r.
    Costs O(n (r + k)^2) for an update of width k.
    """
    u0, s0, v0 = factor.U, factor.S, factor.V
    r = s0.shape[0]
    up, qp, rp = _orthonormal_residual(u0, p)
    vq, qq, rq = _orthonormal_residual(v0, q)
    kp, kq = qp.shape[1], qq.shape[1]

    core = np.zeros((r + kp, r + kq))
    core[:r, :r] = np.diag(s0)
    left = np.vstack([up, rp])    # (r+kp) x k
    right = np.vstack([vq, rq])   # (r+kq) x k
    core += left @ right.T

    f, s_new, gh = np.linalg.svd(core)
    u_new = np.hstack([u0, qp]) @ f[:, :r]
    v_new = np.hstack([v0, qq]) @ gh[:r].T
    s_new = s_new[:r]

    drift = max(
        np.max(np.abs(u_new.T @ u_new - np.eye(r))),
        np.max(np.abs(v_new.T @ v_new - np.eye(r))),
    )
    if drift > BRAND_REORTH_TOL:
        u_new, s_new, v_new = _reorthogonalized(u_new, s_new, v_new)
    return TruncatedSvd(U=u_new, S=s_new, V=v_new)


def _adjacency(g):
    a = np.zeros((g.n, g.n))
    a[g.rows, g.cols] = g.weights
    return a


def _loss(a, u, s, v):
    resid = a - (u * s) @ v.T
    return float(np.sum(resid * resid))


def brand_fold_ref(seq, d: int) -> list:
    """Rank-d loss per snapshot of Brand's fold with no restart: the top
    r = min(4d, n) triples of snapshot 0 (from the package's truncated_svd,
    the factor the package's fold starts from), then one brand_update_ref
    per step with the package's delta factor, truncating back to rank r."""
    a = _adjacency(seq[0])
    factor = truncated_svd(a, min(4 * d, seq.n))
    losses = [_loss(a, factor.U[:, :d], factor.S[:d], factor.V[:, :d])]
    for t in range(1, len(seq)):
        p, q = svd_embed.delta_factor(edge_delta(seq[t - 1], seq[t]), seq.n)
        if p.shape[1]:
            factor = brand_update_ref(factor, p, q)
        a = _adjacency(seq[t])
        losses.append(_loss(a, factor.U[:, :d], factor.S[:d], factor.V[:, :d]))
    return losses


def _unit_columns(m):
    """The nonzero columns of m scaled to unit norm, whatever their scale."""
    m = m[:, np.any(m != 0.0, axis=0)]
    m = m / np.max(np.abs(m), axis=0)
    return m / np.sqrt(np.sum(m * m, axis=0))


def ritz_fold_ref(seq, d: int) -> list:
    """Rank-d loss per snapshot of the Ritz fold with no restart, rebuilt
    from scratch at every step.

    An epoch starts from the top r = min(4d, n) right singular vectors V_r
    of its first snapshot (from the package's truncated_svd, so that where
    sigma_r repeats both folds start from the same basis), and its loss is
    that snapshot's optimum, from a full gesdd. A step appends the Q of the
    package's delta factor to the stack [V_r, Q_1, ...], takes an
    orthonormal basis B of the stack by a thin SVD of its unit columns,
    forms A_t B densely, and takes the loss against A_t of the top d
    triples of its gesdd, mapped back through B. A step that would take r
    plus the epoch's update widths to n starts a new epoch instead.
    """
    n = seq.n
    r = min(4 * d, n)
    losses = []
    for t in range(len(seq)):
        a = _adjacency(seq[t])
        q = svd_embed.delta_factor(edge_delta(seq[t - 1], seq[t]), n)[1] if t else None
        if t and q.shape[1] == 0:
            losses.append(losses[-1])
        elif t and width + q.shape[1] < n:
            stack.append(q)
            width += q.shape[1]
            u, s, _ = np.linalg.svd(_unit_columns(np.hstack(stack)), full_matrices=False)
            basis = u[:, s > 1e-12 * s[0]]
            u2, s2, wh = np.linalg.svd(a @ basis, full_matrices=False)
            losses.append(_loss(a, u2[:, :d], s2[:d], basis @ wh[:d].T))
        else:
            stack = [truncated_svd(a, r).V]
            width = r
            s = np.linalg.svd(a, compute_uv=False)
            losses.append(float(np.sum(s[d:] ** 2)))
    return losses


# --- link prediction by re-embedding the prefix --------------------------


def _prefix_embed(cfg, seq):
    """(series, extras) of cfg's method run on seq, picked by name."""
    m = cfg.method
    if m == "optsvd":
        return svd_embed.optimal_svd_series(seq, cfg.d), {}
    if m in ("incsvd", "rerunsvd"):
        theta = cfg.theta if m == "rerunsvd" else math.inf
        series, log, _ = svd_embed.rerun_svd_series(seq, cfg.d, theta)
        return series, {"restart_log": log}
    if m == "d2v_ae":
        series, result = ae.d2v_ae_series(seq, cfg.ae)
        return series, {"params": result.params}
    series_fn = {"ae_static": ae.static_ae_series, "aealign": ae.aealign_series,
                 "dyngem": ae.dyngem_series}[m]
    series, models = series_fn(seq, cfg.ae)
    return series, {"models": models}


def _prefix_scores(cfg, seq, series, extras, t):
    """n x n scores of snapshot t from a run on seq."""
    if cfg.method in ("optsvd", "incsvd", "rerunsvd"):
        return series.src_at(t) @ series.tgt_at(t).T
    if cfg.method == "d2v_ae":
        return _d2v_decode(cfg, seq, extras, t - 1)
    return ae.reconstruct(extras["models"][t], dense_adjacency(seq[t]))


def _d2v_decode(cfg, seq, extras, t_end):
    """d2v_ae's decoded rows of the window ending at t_end: its scores of
    snapshot t_end + 1."""
    return ae.reconstruct(extras["params"], ae.window_inputs(seq, t_end, cfg.ae.lookback))


def _resolve_t(cfg, spec, hi):
    t = hi + 1 + spec["t"] if spec["t"] < 0 else spec["t"]
    assert (cfg.ae.lookback if cfg.method == "d2v_ae" else 0) <= t <= hi
    return t


def prefix_static_lp_scores(cfg, seq, spec):
    """Static link prediction scores from the method re-run on snapshots
    0..t with G_t replaced by its train split."""
    t = _resolve_t(cfg, spec, len(seq) - 1)
    train, _ = static_lp_split(seq[t], spec["hide_fraction"], Rng(cfg.seed + 101))
    snaps = [seq[i] for i in range(t + 1)]
    snaps[t] = train
    prefix = SnapshotSequence(tuple(snaps))
    return _prefix_scores(cfg, prefix, *_prefix_embed(cfg, prefix), t)


def prefix_temporal_lp_scores(cfg, seq, spec):
    """Temporal link prediction scores (for snapshot t+1) from the method
    re-run on snapshots 0..t."""
    t = _resolve_t(cfg, spec, len(seq) - 2)
    prefix = SnapshotSequence(tuple(seq[i] for i in range(t + 1)))
    series, extras = _prefix_embed(cfg, prefix)
    if cfg.method == "d2v_ae":
        return _d2v_decode(cfg, prefix, extras, t)
    if cfg.method in ("optsvd", "incsvd", "rerunsvd"):
        return series.src_at(t) @ series.tgt_at(t).T
    return ae.reconstruct(extras["models"][t], dense_adjacency(seq[t]))


# --- the autoencoder kernels as numpy expressions ---------------------------
# Each line allocates its result; the package's kernels must match these
# bitwise.


def sigmoid_ref(z):
    """The logistic function, split by sign so that exp never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid_grad_ref(g, h):
    return g * h * (1.0 - h)


def affine_sigmoid_ref(x, w, b):
    return sigmoid_ref(x @ w + b)


def weighted_sq_error_ref(xhat, target, beta):
    return float(np.sum(np.where(target > 0.0, beta, 1.0) * (xhat - target) * (xhat - target)))


def weighted_error_grad_ref(xhat, target, beta):
    return 2.0 * np.where(target > 0.0, beta, 1.0) * (xhat - target)


def reg_terms_ref(params, cfg):
    """The L1/L2 penalty nu1 sum|W| + nu2 sum W^2 of the weights."""
    l1 = sum(float(np.sum(np.abs(w))) for w in params.weights)
    l2 = sum(float(np.sum(w * w)) for w in params.weights)
    return cfg.nu1 * l1 + cfg.nu2 * l2


def ae_loss_ref(params, x, targets, cfg):
    """The AE loss over every row: the weighted squared error of the decoded
    rows against targets, plus the penalty of the weights."""
    return weighted_sq_error_ref(ae.reconstruct(params, x), targets, cfg.beta) \
        + reg_terms_ref(params, cfg)


def ae_gradient_ref(params, x, targets, cfg):
    """ae.ae_gradient with every product and sum a fresh array."""
    acts = [x]
    for i in range(params.n_layers):
        w, b = params.weights[i], params.biases[i]
        acts.append(affine_sigmoid_ref(acts[-1], w, b) if params.is_sigmoid_layer(i)
                    else acts[-1] @ w + b)
    delta = weighted_error_grad_ref(acts[-1], targets, cfg.beta)
    grads_w = [None] * params.n_layers
    grads_b = [None] * params.n_layers
    for i in range(params.n_layers - 1, -1, -1):
        if params.is_sigmoid_layer(i):
            delta = sigmoid_grad_ref(delta, acts[i + 1])
        w = params.weights[i]
        grads_w[i] = acts[i].T @ delta + cfg.nu1 * np.sign(w) + 2.0 * cfg.nu2 * w
        grads_b[i] = delta.sum(axis=0)
        if i:
            delta = delta @ w.T
    return grads_w, grads_b


def train_dense_ref(x, targets, cfg, init, rng):
    """ae.train_dense as it was when each epoch ended with ae_loss_ref over
    every row, also summing each minibatch's weighted squared error of
    reconstruct(params, rows) before its step, plus the penalty of the
    epoch's final weights: (params, those per-epoch sums)."""
    if init is None:
        params = ae.fresh_params(x.shape[1], cfg, rng, output_dim=targets.shape[1])
    else:
        params = init.copy()
    losses = []
    for epoch in range(cfg.n_iter):
        order = rng.permutation(x.shape[0])
        total = 0.0
        for bi, start in enumerate(range(0, x.shape[0], cfg.n_batch)):
            idx = order[start : start + cfg.n_batch]
            gw, gb = ae.ae_gradient(params, x[idx], targets[idx], cfg)
            if not all(np.all(np.isfinite(g)) for g in gw):
                raise ae.AeTrainingError(epoch, bi)
            total += weighted_sq_error_ref(ae.reconstruct(params, x[idx]), targets[idx],
                                           cfg.beta)
            for i in range(params.n_layers):
                gw[i] *= cfg.xeta
                params.weights[i] -= gw[i]
                gb[i] *= cfg.xeta
                params.biases[i] -= gb[i]
        if not np.isfinite(ae_loss_ref(params, x, targets, cfg)):
            raise ae.AeTrainingError(epoch, -1)
        losses.append(total + reg_terms_ref(params, cfg))
    return params, losses


def train_epoch_ref(params, x, targets, cfg, rng):
    """One epoch of ae.train_dense on params, in place: shuffled minibatches,
    each followed by the step W - xeta * grad."""
    order = rng.permutation(x.shape[0])
    for start in range(0, x.shape[0], cfg.n_batch):
        idx = order[start : start + cfg.n_batch]
        gw, gb = ae_gradient_ref(params, x[idx], targets[idx], cfg)
        for i in range(params.n_layers):
            params.weights[i] = params.weights[i] - cfg.xeta * gw[i]
            params.biases[i] = params.biases[i] - cfg.xeta * gb[i]
    return params


# --- the model file reader ---------------------------------------------------


def load_mlp_params(path, n_encoder_layers: int):
    """Read the model format of ae.save_mlp_params into the package's
    MlpParams; the encoder/decoder boundary comes from the caller."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in (s.strip() for s in fh) if ln]
    n_layers = int(lines[0])
    weights, biases = [], []
    pos = 1
    for _ in range(n_layers):
        rows, cols = (int(x) for x in lines[pos].split())
        pos += 1
        w = np.array([[float(x) for x in lines[pos + r].split()] for r in range(rows)])
        pos += rows
        b = np.array([float(x) for x in lines[pos].split()])
        pos += 1
        if w.shape != (rows, cols) or b.shape != (cols,):
            raise ValueError(f"{path}: layer shape mismatch")
        weights.append(w)
        biases.append(b)
    return ae.MlpParams(weights=weights, biases=biases, n_encoder_layers=n_encoder_layers)


# --- the truncated SVD through the full decomposition ------------------------


def truncated_svd_ref(a, d: int):
    """Best rank-d approximation factors of a dense matrix from all of its
    singular triples; numerics.truncated_svd computes only the top d."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("input must be a 2-D matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("input contains non-finite entries")
    if not 1 <= d <= min(a.shape):
        raise ValueError(f"rank d={d} outside [1, {min(a.shape)}]")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return TruncatedSvd(U=u[:, :d].copy(), S=s[:d].copy(), V=vh[:d].T.copy())


# --- the SBM step through a dense matrix ------------------------------------


def sbm_snapshot_ref(labels, p_in, p_out, rng):
    """sbm.generate_sbm_snapshot as it was when it sampled one dense float64
    n x n adjacency and read it back with np.nonzero."""
    labels = np.asarray(labels, dtype=np.int64)
    same = labels[:, None] == labels[None, :]
    adj = (rng.random((labels.size, labels.size)) < np.where(same, p_in, p_out)).astype(np.float64)
    np.fill_diagonal(adj, 0.0)
    return snapshot_from_dense(adj)


def diminish_series_ref(params):
    """sbm.diminish_series as it was when each step copied the dense n x n
    adjacency, overwrote the migrants' rows and columns one draw at a time,
    and read the snapshot back with np.nonzero."""
    rng = Rng(params.seed)
    n = params.node_num
    labels = params.initial_labels()
    same = labels[:, None] == labels[None, :]
    adj = (rng.random((n, n)) < np.where(same, params.p_in, params.p_out)).astype(np.float64)
    np.fill_diagonal(adj, 0.0)
    snapshots, label_history, migrations = [snapshot_from_dense(adj)], [labels.copy()], [[]]
    others = [c for c in range(params.community_num) if c != params.diminish_community]
    for _ in range(1, params.length):
        members = np.flatnonzero(labels == params.diminish_community)
        movers = np.sort(rng.choice_no_replace(members, params.node_change_num))
        step_records = []
        for m in movers.tolist():
            dest = others[rng.integers(len(others))]
            step_records.append((m, int(labels[m]), dest))
            labels[m] = dest
        adj = adj.copy()
        mover_mask = np.zeros(n, dtype=bool)
        mover_mask[movers] = True
        for m in movers.tolist():
            u = rng.random(n)
            row = (u < np.where(labels == labels[m], params.p_in, params.p_out)).astype(np.float64)
            row[m] = 0.0
            adj[m, :] = row
        for m in movers.tolist():
            u = rng.random(n)
            col = (u < np.where(labels == labels[m], params.p_in, params.p_out)).astype(np.float64)
            adj[~mover_mask, m] = col[~mover_mask]
        snapshots.append(snapshot_from_dense(adj))
        label_history.append(labels.copy())
        migrations.append(step_records)
    return DynamicSbmSeries(sequence=SnapshotSequence(snapshots), labels=label_history,
                            migrations=migrations)
