"""SVD-family embeddings: per-snapshot optimal SVD, additive incremental
updates, and the rerun variant with a tolerance-triggered restart.

The embedding of a snapshot with adjacency A and factorization U S V^T is the
asymmetric pair Y_src = U sqrt(S), Y_tgt = V sqrt(S), so Y_src Y_tgt^T is the
best rank-d approximation of A.

The incremental state maintains the factorization at rank min(4d, n), a
truncation buffer that keeps tail directions that repeated rank-d cuts would
otherwise discard; without it the tracking error grows a few percent per
update. Embeddings, reconstruction losses, and the restart log always come
from the top-d view, so reported numbers describe the rank-d embedding.

Each update factors the change between snapshots exactly as P Q^T, one
column per vertex of a minimum row/column cover of the changed entries, and
costs O(n (r + k)^2) for a factor of width k. The cover is never larger than
the set of touched rows or of touched columns; for the SBM drift, where each
migrant's out-row and in-column are resampled, it is one row and one column
per migrant, so k = 20 for 10 migrants, which is the rank of the change.
An update with r + k >= n is not low-rank: it takes the top-r SVD of the
n x n tracked factor plus change instead (numerics.truncated_svd: one
eigendecomposition of the n x n Gram matrix and one n x r SVD), which costs
what a restart costs and less than Brand's update at that width.

The restart rule maintains a lower bound on the optimal rank-d loss without
recomputing a decomposition. By Weyl's inequality, each singular value of the
current adjacency is at most the corresponding value at the last restart plus
the accumulated perturbation norm (spectral norm bounded by Frobenius):

    L_bound(t) = max(0, ||A_t||_F^2 - sum_{i<=d} (max(0, sigma_i(restart) + pert))^2)

A restart fires whenever L_bound > 0 and cur_loss / L_bound - 1 > theta.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import EdgeDelta, GraphSnapshot, SnapshotSequence, dense_adjacency, edge_delta
from .numerics import TruncatedSvd, truncated_svd
from .series import EmbeddingSeries, format_rows

# Residual directions below this norm are discarded during the update.
RESIDUAL_TOL = 1e-12
# Factor drift beyond this triggers re-orthogonalization.
REORTH_TOL = 1e-11
# Maintained rank is BUFFER_FACTOR * d, capped at the matrix dimension.
BUFFER_FACTOR = 4


@dataclass(frozen=True)
class SvdFactorState:
    """Maintained truncated factorization plus restart bookkeeping.

    factor holds the buffered rank; truncated() is the top-d view that all
    reported quantities use.
    """

    factor: TruncatedSvd
    d: int
    t_cur: int
    sigma_restart: np.ndarray
    pert_norm_sum: float
    cur_loss: float
    adj: np.ndarray  # the adjacency the factor currently tracks

    def __post_init__(self):
        if not (math.isfinite(self.pert_norm_sum) and math.isfinite(self.cur_loss)):
            raise ValueError(f"t={self.t_cur}: loss or perturbation norm overflows float64 "
                             f"(cur_loss {self.cur_loss}, pert_norm_sum {self.pert_norm_sum})")
        if self.pert_norm_sum < 0 or self.cur_loss < -1e-12:
            raise ValueError("negative accumulator in factor state")

    def truncated(self) -> TruncatedSvd:
        return _top_view(self.factor, self.d)

    def embedding(self):
        """(Y_src, Y_tgt) of the rank-d view."""
        view = self.truncated()
        root = np.sqrt(view.S)
        return view.U * root, view.V * root


@dataclass(frozen=True)
class RestartLogEntry:
    t: int
    restarted: bool
    cur_loss: float
    bound: float


def _top_view(factor: TruncatedSvd, d: int) -> TruncatedSvd:
    return TruncatedSvd(U=factor.U[:, :d], S=factor.S[:d], V=factor.V[:, :d])


def _exact_loss(adj: np.ndarray, factor: TruncatedSvd) -> float:
    resid = adj - factor.reconstruct()
    return float(np.sum(resid * resid))


def optimal_svd_embed(g: GraphSnapshot, d: int, t: int = 0):
    """Batch truncated SVD of one snapshot; returns (Y_src, Y_tgt, state).

    The state's factor carries the truncation buffer; the embeddings and the
    recorded loss are the rank-d view, which here is the optimal one.
    """
    adj = dense_adjacency(g)
    if not 1 <= d <= min(adj.shape):
        raise ValueError(f"rank d={d} outside [1, {min(adj.shape)}]")
    factor = truncated_svd(adj, min(BUFFER_FACTOR * d, min(adj.shape)))
    view = _top_view(factor, d)
    state = SvdFactorState(
        factor=factor,
        d=d,
        t_cur=t,
        sigma_restart=factor.S[:d].copy(),
        pert_norm_sum=0.0,
        cur_loss=_exact_loss(adj, view),
        adj=adj,
    )
    return (*state.embedding(), state)


def _augment(root, adj: dict, match_row: dict, match_col: dict, seen: set) -> bool:
    """Look for an alternating path from the free row root to a free column
    and flip it. Columns in seen are skipped and new ones are added to it."""
    stack = [(root, iter(adj[root]))]
    path = []  # path[i] is the column taken from stack[i]'s row
    while stack:
        for v in stack[-1][1]:
            if v in seen:
                continue
            seen.add(v)
            w = match_col.get(v)
            if w is None:
                for (u, _), c in zip(stack, path + [v]):
                    match_row[u] = c
                    match_col[c] = u
                return True
            path.append(v)
            stack.append((w, iter(adj[w])))
            break
        else:
            stack.pop()
            if path:
                path.pop()
    return False


def _min_vertex_cover(edges):
    """Minimum vertex cover (rows, columns), each sorted, of the bipartite
    graph whose edges are the (row, column) pairs in edges.

    A greedy matching is grown to a maximum one with augmenting paths; the
    cover is then read off by Koenig's theorem: rows not reachable from a
    free row by an alternating path, plus columns that are. Everything runs
    in sorted order, so the cover is deterministic.
    """
    adj: dict = {}
    for u, v in sorted(edges):
        adj.setdefault(u, []).append(v)
    match_row: dict = {}
    match_col: dict = {}
    for u, vs in adj.items():
        for v in vs:
            if v not in match_col:
                match_row[u] = v
                match_col[v] = u
                break
    # Kuhn's algorithm, one pass. Columns seen by a failed search cannot lie
    # on an augmenting path until the matching changes, so seen is only
    # cleared after a success.
    seen: set = set()
    for u in adj:
        if u not in match_row and _augment(u, adj, match_row, match_col, seen):
            seen = set()

    reached_rows = {u for u in adj if u not in match_row}
    reached_cols: set = set()
    stack = list(reached_rows)
    while stack:
        for v in adj[stack.pop()]:
            if v not in reached_cols:
                reached_cols.add(v)
                w = match_col[v]  # a free column here would mean the matching is not maximum
                if w not in reached_rows:
                    reached_rows.add(w)
                    stack.append(w)
    return [u for u in adj if u not in reached_rows], sorted(reached_cols)


def delta_factor(delta: EdgeDelta, n: int):
    """Factor the perturbation exactly as P Q^T over a minimum vertex cover
    of its changed entries (row u -- column v).

    Column j of the factor belongs to one cover vertex. A cover row u gives
    P[:, j] = e_u and Q[:, j] = Delta[u, :]; a cover column v gives
    Q[:, j] = e_v and P[:, j] = the entries of Delta[:, v] that no cover row
    took. Cover rows come first, then cover columns, each ascending. Every
    changed entry lands in exactly one term, so P Q^T equals the dense delta
    exactly. The width is the cover size, which by Koenig's theorem is the
    size of a maximum matching of the entries: at most the number of touched
    rows and of touched columns, and at least the rank of the delta.
    """
    added, removed, reweighted = delta.added, delta.removed, delta.reweighted
    us = np.concatenate([added["u"], removed["u"], reweighted["u"]])
    vs = np.concatenate([added["v"], removed["v"], reweighted["v"]])
    change = np.concatenate([added["w"], -removed["w"],
                             reweighted["w_new"] - reweighted["w_old"]])
    rows, cols = _min_vertex_cover(zip(us.tolist(), vs.tolist()))
    k = len(rows) + len(cols)
    p = np.zeros((n, k))
    q = np.zeros((n, k))
    p[rows, range(len(rows))] = 1.0
    q[cols, range(len(rows), k)] = 1.0
    row_slot = np.full(n, -1)
    row_slot[rows] = range(len(rows))
    col_slot = np.full(n, -1)
    col_slot[cols] = range(len(rows), k)
    in_row = row_slot[us] >= 0  # an entry goes to its cover row, else to its cover column
    q[vs[in_row], row_slot[us[in_row]]] = change[in_row]
    p[us[~in_row], col_slot[vs[~in_row]]] = change[~in_row]
    return p, q


def _orthonormal_residual(basis: np.ndarray, block: np.ndarray):
    """Split block into its component in span(basis) and an orthonormal
    remainder: block ~ basis @ coef + q @ r with q^T basis = 0.

    Directions with singular value below RESIDUAL_TOL are dropped, which
    also absorbs linearly dependent update columns.
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
    keep = int(np.sum(s > RESIDUAL_TOL))
    q = u[:, :keep]
    r = s[:keep, None] * vh[:keep]
    return coef, q, r


def _reorthogonalized(u, s, v):
    qu, ru = np.linalg.qr(u)
    qv, rv = np.linalg.qr(v)
    f, s2, gh = np.linalg.svd(ru * s @ rv.T)
    return qu @ f, s2, qv @ gh.T


def _brand_update(factor: TruncatedSvd, p: np.ndarray, q: np.ndarray) -> TruncatedSvd:
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
    if drift > REORTH_TOL:
        u_new, s_new, v_new = _reorthogonalized(u_new, s_new, v_new)
    return TruncatedSvd(U=u_new, S=s_new, V=v_new)


def incremental_update(state: SvdFactorState, p: np.ndarray, q: np.ndarray, d: int) -> SvdFactorState:
    """Additive modification of the maintained SVD for A + P Q^T.

    The new factor is the top rank-r SVD of U S V^T + P Q^T, r being the
    maintained rank. While r + k < n for an update of width k, Brand's
    update (_brand_update) computes it at O(n (r + k)^2). Once r + k >= n
    the update basis can span all of R^n and the update is no longer
    low-rank, so the n x n matrix U S V^T + P Q^T is formed and its top r
    triples are taken by truncated_svd, the cost of a restart; Brand's core
    SVD is that matrix written in an orthonormal basis, so both give the
    same factor. Neither is a restart: the matrix is the tracked factor plus
    the change, not the stored adjacency. The reported loss is recomputed
    exactly against the stored adjacency from the rank-d view.
    """
    if d != state.d:
        raise ValueError(f"rank change {state.d} -> {d} not supported")
    n = state.adj.shape[0]
    if p.shape[0] != n or q.shape[0] != n or p.shape[1] != q.shape[1]:
        raise ValueError("P, Q must be n x k")

    pert = p @ q.T
    adj_new = state.adj + pert
    pert_sq = float(np.sum((p.T @ p) * (q.T @ q)))
    pert_norm = math.sqrt(max(pert_sq, 0.0))

    if p.shape[1] == 0 or pert_norm == 0.0:
        return replace(
            state,
            t_cur=state.t_cur + 1,
            pert_norm_sum=state.pert_norm_sum + pert_norm,
            adj=adj_new,
            cur_loss=_exact_loss(adj_new, state.truncated()),
        )

    r = state.factor.S.shape[0]
    if r + p.shape[1] >= n:
        updated = state.factor.reconstruct()
        updated += pert
        factor = truncated_svd(updated, r)
    else:
        factor = _brand_update(state.factor, p, q)
    return SvdFactorState(
        factor=factor,
        d=d,
        t_cur=state.t_cur + 1,
        sigma_restart=state.sigma_restart,
        pert_norm_sum=state.pert_norm_sum + pert_norm,
        cur_loss=_exact_loss(adj_new, _top_view(factor, d)),
        adj=adj_new,
    )


def loss_lower_bound(state: SvdFactorState) -> float:
    """Weyl-inequality lower bound on the optimal rank-d loss at t_cur."""
    total = float(np.sum(state.adj * state.adj))
    if not math.isfinite(total):
        raise ValueError(f"t={state.t_cur}: ||A||_F^2 overflows float64, so no loss bound exists")
    shifted = np.maximum(state.sigma_restart + state.pert_norm_sum, 0.0)
    return max(0.0, total - float(np.sum(shifted * shifted)))


def rerun_svd_step(state: SvdFactorState, prev: GraphSnapshot, cur: GraphSnapshot,
                   theta: float):
    """One step of the rerun fold from state, which tracks prev, onto cur;
    returns (state, log entry)."""
    t = state.t_cur + 1
    p, q = delta_factor(edge_delta(prev, cur), cur.n)
    state = incremental_update(state, p, q, state.d)
    bound = loss_lower_bound(state)
    restarted = (
        math.isfinite(theta) and bound > 0.0 and state.cur_loss / bound - 1.0 > theta
    )
    if restarted:
        _, _, state = optimal_svd_embed(cur, state.d, t=t)
        bound = loss_lower_bound(state)
    return state, RestartLogEntry(t, restarted, state.cur_loss, bound)


def rerun_svd_series(seq: SnapshotSequence, d: int, theta: float, keep: int | None = None):
    """Embed every snapshot, restarting the batch SVD when the incremental
    loss exceeds (1 + theta) times the lower bound. theta=inf never restarts
    and is exactly the pure incremental method. Returns (series, log, state),
    state being the factor state after step keep, or None when no step is
    keep."""
    if not theta > 0:
        raise ValueError("theta must be positive (use math.inf for no restarts)")
    y_src, y_tgt, state = optimal_svd_embed(seq[0], d, t=0)
    log = [RestartLogEntry(0, False, state.cur_loss, loss_lower_bound(state))]
    srcs, tgts, kept = [], [], None
    for t in range(len(seq)):
        if t:
            state, entry = rerun_svd_step(state, seq[t - 1], seq[t], theta)
            log.append(entry)
            y_src, y_tgt = state.embedding()
        if t == keep:
            kept = state
        srcs.append(y_src)
        tgts.append(y_tgt)
    return EmbeddingSeries(y_src=srcs, y_tgt=tgts), log, kept


def optimal_svd_series(seq: SnapshotSequence, d: int) -> EmbeddingSeries:
    """Batch-optimal SVD embedding recomputed independently per snapshot."""
    srcs, tgts = [], []
    for t in range(len(seq)):
        y_src, y_tgt, _ = optimal_svd_embed(seq[t], d, t=t)
        srcs.append(y_src)
        tgts.append(y_tgt)
    return EmbeddingSeries(y_src=srcs, y_tgt=tgts)


def save_restart_log(log, path) -> None:
    """Lines `t restarted cur_loss bound`."""
    rows = np.array([(e.t, e.restarted, e.cur_loss, e.bound) for e in log], dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(format_rows(rows.reshape(-1, 4)))
