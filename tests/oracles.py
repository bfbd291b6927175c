"""Independent reference implementations used as test oracles.

Everything here is written the dumb, obvious way (pure Python loops, the
textbook formula) and deliberately shares no code with the package. The two
exceptions are at the end: the plain incremental SVD fold, built from the
package's update step with no restart test, and the prefix re-embed, which
runs the package's methods on a prefix of the sequence, as link prediction
once did.
"""

import itertools
import math

import numpy as np

from dynembed import ae, svd_embed
from dynembed.evaluation import static_lp_split
from dynembed.graphs import GraphSnapshot, SnapshotSequence, dense_adjacency, edge_delta
from dynembed.rng import Rng

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
    """Central finite differences of ae_loss over every weight and bias."""
    from dynembed.ae import ae_loss

    grads_w, grads_b = [], []
    for mats, grads in ((params.weights, grads_w), (params.biases, grads_b)):
        for m in mats:
            g = np.zeros_like(m)
            it = np.nditer(m, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = m[idx]
                m[idx] = orig + h
                up = ae_loss(params, x, targets, cfg)
                m[idx] = orig - h
                down = ae_loss(params, x, targets, cfg)
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


def save_snapshots_ref(seq, path) -> None:
    """The snapshot text format written one edge line at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(seq)} {seq.n}\n")
        for t, g in enumerate(seq):
            for u, v, w in g.edges():
                fh.write(f"{t} {u} {v} {w:.17g}\n")


def row_indicator_factor(delta, n: int):
    """Delta as P Q^T with one column per touched row: P[:, j] = e_u and
    Q[:, j] = the change of row u."""
    rows = sorted(delta.touched_rows)
    p = np.zeros((n, len(rows)))
    q = np.zeros((n, len(rows)))
    col = {u: j for j, u in enumerate(rows)}
    for j, u in enumerate(rows):
        p[u, j] = 1.0
    for u, v, w in delta.added:
        q[v, col[u]] += w
    for u, v, w_old in delta.removed:
        q[v, col[u]] -= w_old
    for u, v, w_old, w_new in delta.reweighted:
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
    adj = g.edge_dict()
    for u, v, w_old in delta.removed:
        if adj.get((u, v)) != w_old:
            raise ValueError(f"removed edge ({u},{v}) does not match snapshot")
        del adj[(u, v)]
    for u, v, w_old, w_new in delta.reweighted:
        if adj.get((u, v)) != w_old:
            raise ValueError(f"reweighted edge ({u},{v}) does not match snapshot")
        adj[(u, v)] = w_new
    for u, v, w in delta.added:
        if (u, v) in adj:
            raise ValueError(f"added edge ({u},{v}) already present")
        adj[(u, v)] = w
    return GraphSnapshot(g.n, ((u, v, w) for (u, v), w in adj.items()))


# --- the incremental SVD with no restart test ------------------------------


def plain_incremental_fold(seq, d: int):
    """([(Y_src, Y_tgt) per t], restart log) of a batch SVD of snapshot 0
    followed by one additive update per step, never restarting."""
    _, _, state = svd_embed.optimal_svd_embed(seq[0], d, t=0)
    states = [state]
    for t in range(1, len(seq)):
        p, q = svd_embed.delta_factor(edge_delta(seq[t - 1], seq[t]), seq.n)
        states.append(svd_embed.incremental_update(states[-1], p, q, d))
    log = [svd_embed.RestartLogEntry(t, False, s.cur_loss, svd_embed.loss_lower_bound(s))
           for t, s in enumerate(states)]
    return [s.embedding() for s in states], log


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
        series, predictor, _ = ae.d2v_ae_series(seq, cfg.ae)
        return series, {"predictor": predictor}
    series_fn = {"ae_static": ae.static_ae_series, "aealign": ae.aealign_series,
                 "dyngem": ae.dyngem_series}[m]
    series, models = series_fn(seq, cfg.ae)
    return series, {"models": models}


def _prefix_scores(cfg, seq, series, extras, t):
    """n x n scores of snapshot t from a run on seq."""
    if cfg.method in ("optsvd", "incsvd", "rerunsvd"):
        return series.src_at(t) @ series.tgt_at(t).T
    if cfg.method == "d2v_ae":
        return extras["predictor"].predict_next(seq, t - 1)
    return ae.reconstruct(extras["models"][t], dense_adjacency(seq[t]))


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
        return extras["predictor"].predict_next(prefix, t)
    if cfg.method in ("optsvd", "incsvd", "rerunsvd"):
        return series.src_at(t) @ series.tgt_at(t).T
    return ae.reconstruct(extras["models"][t], dense_adjacency(seq[t]))
