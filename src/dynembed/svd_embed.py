"""SVD-family embeddings: per-snapshot optimal SVD, incremental updates by a
Rayleigh-Ritz step, and the rerun variant with a certified restart.

The embedding of a snapshot with adjacency A and factorization U S V^T is the
asymmetric pair Y_src = U sqrt(S), Y_tgt = V sqrt(S), so Y_src Y_tgt^T is the
best rank-d approximation of A. The factor state holds the snapshot it
tracks, shared and not copied.

Epochs. A batch step takes the top r = min(4d, n) triples of the snapshot
A_r and starts an epoch: the orthonormal basis Q = V_r, its image
A_r Q = U_r S_r, and the tail tau = sum_{i=r+1}^{r+d} sigma_i(A_r)^2, all
from one truncated_svd. The batch steps are t = 0 and every update that
would take the epoch's width, r plus the widths of its updates, to n.

Steps. An update factors the change exactly as P Q_D^T over a minimum
row/column cover of the changed entries: for the SBM drift, one row and one
column per migrant, k = 20 for 10 migrants, the rank of the change. The
image stays exact, A_t Q = A_{t-1} Q + P (Q_D^T Q); the directions of
span(Q_D) outside span(Q) join the basis, with their image one dense
product with A_t. The sum rounds relative to the largest ||A_s|| it ran
over, so when ||A_t||_F^2 falls below IMAGE_RTOL times that, A_t Q is
formed afresh. The factor is the top-d SVD of A_t Q = U S W^T with
V = Q W, the best rank-d approximation of A_t whose row space lies in
span(Q) (Rayleigh-Ritz; Zha and Simon, SIAM J. Sci. Comput. 1999). Its
reconstruction A_t V V^T is an orthogonal projection of A_t, so its loss is

    cur_loss = ||A_t||_F^2 - sum_{i<=d} sigma_i(A_t Q)^2,

with no n x n residual. A step costs O(n^2 k + n w^2) at basis width w.
Brand's additive update (LAA 2006), which this replaced, is kept in
tests/oracles.py; while the first epoch lasts its factor lies in span(Q),
so its loss is never below the Ritz loss.

Certificate. Every change since A_r has its row space in span(Q), so
A_t (I - QQ^T) = A_r (I - QQ^T), whose singular values are at most
sigma_{r+i}(A_r) since V_r lies in span(Q). A_t A_t^T is the sum of the
positive semidefinite A_t QQ^T A_t^T and A_t (I - QQ^T) A_t^T, so by Ky
Fan's inequality (PNAS 1949; Weyl's inequality in sum form) its top d
eigenvalues sum to at most sum_{i<=d} sigma_i(A_t Q)^2 + tau. Hence

    opt_d(A_t) = ||A_t||_F^2 - sum_{i<=d} sigma_i(A_t)^2 >= cur_loss - tau.

Drift moves only cur_loss, which is exact; the slack is at most tau.

Restarts. The rerun fold restarts when the bound is positive and
cur_loss / bound - 1 > theta (TIMERS, Zhang et al., AAAI 2018): it takes
the batch SVD of the snapshot, whose V_r joins the basis. Both snapshots'
tails then bound the slack, and the smaller is kept. A restart drops no
basis direction and does not count toward the epoch's width, so the rerun
fold's basis contains the plain fold's and its loss is never above it.
"""
import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import EdgeDelta, GraphSnapshot, SnapshotSequence, dense_adjacency, edge_delta
from .numerics import ORTHO_TOL, TruncatedSvd, truncated_svd
from .series import EmbeddingSeries, format_rows

# A unit column of a change whose residual against the basis is no larger
# than this lies in the basis already.
RESIDUAL_TOL = 1e-12
# Rounding margin of the certificate, relative to ||A_t||_F^2.
BOUND_RTOL = 1e-9
# The image is formed afresh once ||A_t||_F^2 falls below this fraction of
# its scale, so that its rounding stays within about 100 eps of ||A_t|| a step.
IMAGE_RTOL = 1e-4
# The epoch's basis starts at rank BUFFER_FACTOR * d, capped at n.
BUFFER_FACTOR = 4


@dataclass(frozen=True)
class SvdFactorState:
    """The top-d factor of the tracked snapshot and the epoch it lies in.

    factor is the top-d Ritz factor of snapshot, the graph tracked at t_cur,
    and cur_loss its loss against it. basis is the epoch's orthonormal
    Q (n x w), image is snapshot's adjacency times Q, and image_scale the
    largest ||A_s||_F^2 of the snapshots it was summed over. tail is the
    epoch's tail energy tau, and epoch_width is r plus the widths of the
    epoch's updates. batch is True at a batch step and a restart, where
    factor is the batch SVD and cur_loss the optimal loss.
    """

    factor: TruncatedSvd
    d: int
    t_cur: int
    cur_loss: float
    snapshot: GraphSnapshot
    basis: np.ndarray
    image: np.ndarray
    image_scale: float
    tail: float
    epoch_width: int
    batch: bool

    def __post_init__(self):
        t, n = self.t_cur, self.snapshot.n
        if not self.factor.U.shape[0] == self.factor.V.shape[0] == n:
            raise ValueError(f"t={t}: factor rows {self.factor.U.shape[0]}, "
                             f"{self.factor.V.shape[0]} do not match the snapshot's {n} nodes")
        if not math.isfinite(self.cur_loss):
            raise ValueError(f"t={t}: loss overflows float64 (cur_loss {self.cur_loss})")
        if self.cur_loss < 0.0:
            raise ValueError(f"t={t}: negative loss {self.cur_loss}")
        w = self.basis.shape[1]
        if self.basis.shape[0] != n or self.image.shape != (n, w) or w > n:
            raise ValueError(f"t={t}: basis {self.basis.shape} and image {self.image.shape} "
                             f"must both be n x w with w <= n = {n}")
        drift = np.max(np.abs(self.basis.T @ self.basis - np.eye(w)), initial=0.0)
        if drift > ORTHO_TOL:
            raise ValueError(f"t={t}: basis columns not orthonormal (drift {drift:.2e})")
        if not (math.isfinite(self.tail) and self.tail >= 0.0):
            raise ValueError(f"t={t}: tail energy {self.tail} is not finite and >= 0")

    def embedding(self):
        """(Y_src, Y_tgt) of the factor."""
        root = np.sqrt(self.factor.S)
        return self.factor.U * root, self.factor.V * root


@dataclass(frozen=True)
class RestartLogEntry:
    t: int
    restarted: bool
    cur_loss: float
    bound: float


def _norm_sq(g: GraphSnapshot) -> float:
    return float(np.sum(np.square(g.weights)))


def _closed_form_loss(norm_sq: float, s: np.ndarray) -> float:
    """||A||_F^2 - sum s_i^2, floored at 0 against rounding: the loss of a
    factor with singular values s whose reconstruction is an orthogonal
    projection of A. NaN stays NaN."""
    return float(np.maximum(norm_sq - np.sum(s * s), 0.0))


def optimal_svd_embed(g: GraphSnapshot, d: int, t: int = 0):
    """Batch truncated SVD of one snapshot; returns (Y_src, Y_tgt, state).

    The top r = min(4d, n) triples start the state's epoch; the embeddings
    and the recorded loss are those of the top d, which here are optimal.
    """
    adj = dense_adjacency(g)
    if not 1 <= d <= min(adj.shape):
        raise ValueError(f"rank d={d} outside [1, {min(adj.shape)}]")
    top, tail = truncated_svd(adj, min(BUFFER_FACTOR * d, min(adj.shape)), tail=d)
    factor = TruncatedSvd(U=top.U[:, :d], S=top.S[:d], V=top.V[:, :d])
    norm_sq = _norm_sq(g)
    state = SvdFactorState(factor=factor, d=d, t_cur=t,
                           cur_loss=_closed_form_loss(norm_sq, factor.S), snapshot=g,
                           basis=top.V, image=top.U * top.S, image_scale=norm_sq,
                           tail=tail, epoch_width=top.S.shape[0], batch=True)
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


def _min_vertex_cover(edges, stop_at: int | None = None):
    """Minimum vertex cover (rows, columns), each sorted, of the bipartite
    graph whose edges are the (row, column) pairs in edges.

    A greedy matching is grown to a maximum one with augmenting paths; the
    cover is then read off by Koenig's theorem: rows not reachable from a
    free row by an alternating path, plus columns that are. Everything runs
    in sorted order, so the cover is deterministic. With stop_at, None is
    returned as soon as the greedy matching has stop_at edges: every cover
    then has at least stop_at vertices.
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
    if stop_at is not None and len(match_row) >= stop_at:
        return None
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


def delta_factor(delta: EdgeDelta, n: int, wide_at: int | None = None):
    """Factor the perturbation exactly as P Q^T over a minimum vertex cover
    of its changed entries (row u -- column v); with wide_at, None instead
    when a greedy matching shows the cover to be at least wide_at wide.

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
    cover = _min_vertex_cover(zip(us.tolist(), vs.tolist()), wide_at)
    if cover is None:
        return None
    rows, cols = cover
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


def _new_directions(basis: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Orthonormal columns, orthogonal to basis, spanning the part of
    span(block) outside span(basis).

    The columns of block are scaled to unit norm first, so RESIDUAL_TOL is
    relative to each column's scale: weights of 1e-170 keep their
    directions. A thin SVD of the residual drops the directions it holds
    below RESIDUAL_TOL, dependent columns included. Dividing by a small
    singular value magnifies what the projection left along basis, so the
    kept directions are projected again and orthonormalized by a QR.
    """
    scale = np.max(np.abs(block), axis=0)
    block = block[:, scale > 0.0] / scale[scale > 0.0]
    block /= np.linalg.norm(block, axis=0)
    u, s, _ = np.linalg.svd(block - basis @ (basis.T @ block), full_matrices=False)
    u = u[:, s > RESIDUAL_TOL]
    u -= basis @ (basis.T @ u)
    return np.linalg.qr(u)[0]


def _batch_width(state: SvdFactorState) -> int:
    """The narrowest update that makes a step a batch step: a non-empty one
    that would take the epoch's width to n (epoch_width + k >= n). It may
    span all of R^n, where the Ritz step is the batch SVD of the snapshot."""
    return max(1, state.snapshot.n - state.epoch_width)


def incremental_update(state: SvdFactorState, p: np.ndarray, q: np.ndarray,
                       g: GraphSnapshot) -> SvdFactorState:
    """The Ritz step onto g, whose adjacency is the tracked snapshot's plus
    P Q^T (see the module docstring). An update at least _batch_width wide
    takes the batch SVD of g and starts a new epoch. An empty update keeps
    the factor, epoch and loss.
    """
    n = state.snapshot.n
    if g.n != n:
        raise ValueError(f"snapshot has {g.n} nodes, the factor state tracks {n}")
    if p.shape[0] != n or q.shape[0] != n or p.shape[1] != q.shape[1]:
        raise ValueError("P, Q must be n x k")
    t = state.t_cur + 1
    if p.shape[1] == 0:
        return replace(state, t_cur=t, snapshot=g)
    if p.shape[1] >= _batch_width(state):
        return optimal_svd_embed(g, state.d, t)[2]
    new = _new_directions(state.basis, q)
    basis = np.hstack([state.basis, new])
    norm_sq = _norm_sq(g)
    scale = max(state.image_scale, norm_sq)
    if norm_sq < IMAGE_RTOL * scale:  # the sum would cancel
        image, scale = dense_adjacency(g) @ basis, norm_sq
    else:
        image = np.hstack([state.image + p @ (q.T @ state.basis), dense_adjacency(g) @ new])
    ritz = truncated_svd(image, state.d)
    factor = TruncatedSvd(U=ritz.U, S=ritz.S, V=basis @ ritz.V)
    return replace(state, factor=factor, t_cur=t, cur_loss=_closed_form_loss(norm_sq, ritz.S),
                   snapshot=g, basis=basis, image=image, image_scale=scale,
                   epoch_width=state.epoch_width + p.shape[1], batch=False)


def loss_lower_bound(state: SvdFactorState) -> float:
    """Ky Fan lower bound on the optimal rank-d loss of the tracked snapshot,

        max(0, cur_loss - tail - BOUND_RTOL * ||A_t||_F^2),

    the last term a margin for rounding (see the module docstring); at a
    batch step, where the factor is optimal, cur_loss itself."""
    if state.batch:
        return state.cur_loss
    return max(0.0, state.cur_loss - state.tail - BOUND_RTOL * _norm_sq(state.snapshot))


def rerun_svd_step(state: SvdFactorState, cur: GraphSnapshot, theta: float):
    """One step of the rerun fold from state onto cur, the update being the
    change from the snapshot state tracks; returns (state, log entry). A
    restart keeps the epoch's basis and width and adds cur's top r right
    singular vectors to the basis (see the module docstring). A change that
    a greedy matching shows to be at least _batch_width wide, such as static
    LP's step onto a train split, is a batch step without its exact cover."""
    t = state.t_cur + 1
    factor = delta_factor(edge_delta(state.snapshot, cur), cur.n, _batch_width(state))
    if factor is None:
        state = optimal_svd_embed(cur, state.d, t)[2]
    else:
        state = incremental_update(state, *factor, cur)
    bound = loss_lower_bound(state)
    restarted = (
        math.isfinite(theta) and bound > 0.0 and state.cur_loss / bound - 1.0 > theta
    )
    if restarted:
        _, _, fresh = optimal_svd_embed(cur, state.d, t=t)
        new = _new_directions(state.basis, fresh.basis)
        state = replace(fresh, basis=np.hstack([state.basis, new]),
                        image=np.hstack([state.image, dense_adjacency(cur) @ new]),
                        image_scale=max(state.image_scale, fresh.image_scale),
                        tail=min(state.tail, fresh.tail), epoch_width=state.epoch_width)
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
            state, entry = rerun_svd_step(state, seq[t], theta)
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
