"""Dynamic stochastic block model generator with a diminishing community.

Communities start as contiguous, near-equal id ranges (remainder to the last
community). At every step after the first, a fixed number of members of the
diminishing community migrate: each is relabeled to a uniformly chosen other
community and every edge incident to a migrant is resampled under the new
labels, while all other edges carry over unchanged. That keeps deltas small,
which is exactly the regime the incremental SVD update targets. Only the
first snapshot is sampled as a dense n x n draw; each step edits the previous
snapshot's edge arrays.

All randomness flows through one Rng stream in a documented order: initial
adjacency, then per step (migrant choice, destination draws, migrant
out-rows in ascending node order, migrant in-columns in ascending node
order). Identical (params, seed) reproduce the series bit-for-bit.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .graphs import GraphSnapshot, SnapshotSequence, int_lines
from .rng import Rng


@dataclass(frozen=True)
class SbmParams:
    node_num: int
    community_num: int
    length: int
    diminish_community: int
    node_change_num: int
    p_in: float = 0.1
    p_out: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.community_num < 2:
            raise ValueError("community_num must be >= 2")
        if self.node_num < self.community_num:
            raise ValueError("node_num must be >= community_num")
        if not 0 <= self.diminish_community < self.community_num:
            raise ValueError("diminish_community outside community range")
        if not 0.0 <= self.p_out < self.p_in <= 1.0:
            raise ValueError("probabilities must satisfy 0 <= p_out < p_in <= 1")
        migrations = self.node_change_num * (self.length - 1)
        initial = self.community_sizes()[self.diminish_community]
        if not 0 < migrations < initial:
            raise ValueError(
                f"total migrations {migrations} must be in (0, {initial}) "
                "so the diminishing community is never exhausted"
            )

    def community_sizes(self) -> list:
        base = self.node_num // self.community_num
        sizes = [base] * (self.community_num - 1)
        sizes.append(self.node_num - base * (self.community_num - 1))
        return sizes

    def initial_labels(self) -> np.ndarray:
        labels = np.empty(self.node_num, dtype=np.int64)
        start = 0
        for c, size in enumerate(self.community_sizes()):
            labels[start : start + size] = c
            start += size
        return labels


@dataclass(frozen=True)
class DynamicSbmSeries:
    """Generated sequence plus ground truth labels and migration records."""

    sequence: SnapshotSequence
    labels: list  # per snapshot, int64 array of community ids
    migrations: list  # per snapshot, list of (node, old_community, new_community)


def generate_sbm_snapshot(labels, p_in: float, p_out: float, rng: Rng) -> GraphSnapshot:
    """Sample one directed SBM snapshot: each ordered pair u != v carries an
    edge of weight 1.0 with probability p_in (same community) or p_out."""
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    adj = kernels.block_sample(rng.random((n, n)), labels, float(p_in), float(p_out))
    return _snapshot_from_dense(adj)


def _snapshot_from_dense(adj: np.ndarray) -> GraphSnapshot:
    """The snapshot of a square adjacency matrix's non-zero entries."""
    us, vs = np.nonzero(adj)  # row-major, so already sorted by (u, v)
    return GraphSnapshot(adj.shape[0], us, vs, adj[us, vs])


def diminish_series(params: SbmParams) -> DynamicSbmSeries:
    """Generate the full diminishing-community series for params.

    Each step after the first builds its snapshot from the previous one's
    edge arrays, with no n x n matrix: the edges with neither end a migrant
    carry over, then come each migrant's out-row draws (all targets but
    itself, migrants included), then each migrant's in-column draws over
    the non-migrant sources. Every draw is a fresh uniform row of n, taken
    in that order whatever gets accepted.
    """
    rng = Rng(params.seed)
    n = params.node_num
    labels = params.initial_labels()
    snapshots = [generate_sbm_snapshot(labels, params.p_in, params.p_out, rng)]
    label_history = [labels.copy()]
    migrations: list = [[]]
    others = [c for c in range(params.community_num) if c != params.diminish_community]

    for _ in range(1, params.length):
        members = np.flatnonzero(labels == params.diminish_community)
        if members.size < params.node_change_num:
            raise ValueError("diminishing community exhausted")
        movers = np.sort(rng.choice_no_replace(members, params.node_change_num))
        step_records = []
        for m in movers.tolist():
            dest = others[rng.integers(len(others))]
            step_records.append((m, int(labels[m]), dest))
            labels[m] = dest

        g = snapshots[-1]
        mover_mask = np.zeros(n, dtype=bool)
        mover_mask[movers] = True
        probs = np.where(labels[movers][:, None] == labels[None, :], params.p_in, params.p_out)
        out_rows = rng.random((movers.size, n)) < probs
        out_rows[np.arange(movers.size), movers] = False
        in_cols = rng.random((movers.size, n)) < probs
        in_cols[:, mover_mask] = False
        keep = ~(mover_mask[g.rows] | mover_mask[g.cols])
        out_m, out_v = np.nonzero(out_rows)
        in_m, in_u = np.nonzero(in_cols)
        rows = np.concatenate([g.rows[keep], movers[out_m], in_u])
        cols = np.concatenate([g.cols[keep], out_v, movers[in_m]])
        snapshots.append(GraphSnapshot(n, rows, cols, np.ones(rows.size)))
        label_history.append(labels.copy())
        migrations.append(step_records)

    return DynamicSbmSeries(
        sequence=SnapshotSequence(snapshots),
        labels=label_history,
        migrations=migrations,
    )


def save_labels(series: DynamicSbmSeries, path) -> None:
    """Lines `t node community`, sorted by (t, node)."""
    sizes = [len(labels) for labels in series.labels]
    with open(path, "wb") as fh:
        fh.write(int_lines(np.repeat(np.arange(len(sizes)), sizes),
                           np.concatenate([np.arange(k) for k in sizes]),
                           np.concatenate(series.labels)))


def load_labels(path) -> list:
    """Per-snapshot label arrays from `t node community` lines, one per
    (t, node), all non-negative."""
    rows = {}  # (t, node) -> community
    with open(path, "r", encoding="utf-8") as fh:
        for no, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            try:
                t, node, c = (int(x) for x in s.split())
            except ValueError:
                raise ValueError(f"{path}: line {no}: expected `t node community`, "
                                 f"got {s!r}") from None
            if min(t, node, c) < 0:
                raise ValueError(f"{path}: line {no}: negative value in {s!r}")
            if (t, node) in rows:
                raise ValueError(f"{path}: line {no}: duplicate label of node {node} at t={t}")
            rows[(t, node)] = c
    if not rows:
        raise ValueError(f"{path}: empty labels file")
    t_max = max(t for t, _ in rows)
    n = max(node for _, node in rows) + 1
    out = [np.full(n, -1, dtype=np.int64) for _ in range(t_max + 1)]
    for (t, node), c in rows.items():
        out[t][node] = c
    for t, labels in enumerate(out):
        if np.any(labels < 0):
            raise ValueError(f"{path}: missing labels at snapshot {t}")
    return out


def save_migrations(series: DynamicSbmSeries, path) -> None:
    """Lines `t node old_community new_community`, sorted by (t, node)."""
    records = np.array([(t, *r) for t, step in enumerate(series.migrations)
                        for r in sorted(step)], dtype=np.int64).reshape(-1, 4)
    with open(path, "wb") as fh:
        fh.write(int_lines(*records.T))


def load_migrations(path, length: int) -> list:
    """Per-snapshot (node, old, new) records from `t node old new` lines, at
    most one per (t, node)."""
    out: list = [[] for _ in range(length)]
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for no, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            try:
                t, node, old, new = (int(x) for x in s.split())
            except ValueError:
                raise ValueError(f"{path}: line {no}: expected `t node old_community "
                                 f"new_community`, got {s!r}") from None
            if not 0 <= t < length:
                raise ValueError(f"{path}: line {no}: migration at t={t} outside [0,{length})")
            if (t, node) in seen:
                raise ValueError(f"{path}: line {no}: duplicate migration of node {node} at t={t}")
            seen.add((t, node))
            out[t].append((node, old, new))
    return out
