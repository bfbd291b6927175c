"""Snapshot-sequence graph model with delta extraction and canonical text IO.

Graphs are weighted and directed over a node set that is fixed across time;
weight 0 encodes edge absence and all stored weights are strictly positive.
Snapshots and sequences are immutable after construction and safe to share
across threads.
"""

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_DENSE_LIMIT = 20_000


class SnapshotParseError(ValueError):
    """Raised on malformed snapshot files; carries the offending line number."""

    def __init__(self, kind: str, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.kind = kind
        self.line_no = line_no


class GraphSnapshot:
    """One weighted directed graph; edges stored as a (u, v) -> w mapping."""

    __slots__ = ("n", "_adj")

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
        self._adj = adj

    @property
    def num_edges(self) -> int:
        return len(self._adj)

    def weight(self, u: int, v: int) -> float:
        """Weight of (u, v), or 0.0 when the edge is absent."""
        return self._adj.get((u, v), 0.0)

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._adj

    def edges(self):
        """Edges as (u, v, w) triples sorted by (u, v)."""
        return [(u, v, self._adj[(u, v)]) for u, v in sorted(self._adj)]

    def edge_pairs(self) -> set:
        return set(self._adj)

    def edge_dict(self) -> dict:
        return dict(self._adj)

    def __eq__(self, other):
        if not isinstance(other, GraphSnapshot):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __repr__(self):
        return f"GraphSnapshot(n={self.n}, edges={len(self._adj)})"


class SnapshotSequence:
    """Ordered snapshots G_0..G_{T-1} sharing one node set."""

    __slots__ = ("snapshots",)

    def __init__(self, snapshots):
        snapshots = tuple(snapshots)
        if not snapshots:
            raise ValueError("sequence must contain at least one snapshot")
        n = snapshots[0].n
        for i, g in enumerate(snapshots):
            if g.n != n:
                raise ValueError(f"snapshot {i} has n={g.n}, expected {n}")
        self.snapshots = snapshots

    @property
    def n(self) -> int:
        return self.snapshots[0].n

    def __len__(self):
        return len(self.snapshots)

    def __getitem__(self, t):
        return self.snapshots[t]

    def __iter__(self):
        return iter(self.snapshots)

    def __eq__(self, other):
        if not isinstance(other, SnapshotSequence):
            return NotImplemented
        return self.snapshots == other.snapshots


@dataclass(frozen=True)
class EdgeDelta:
    """Exact difference between two snapshots over the same node set.

    added/removed hold (u, v, w) triples, reweighted holds (u, v, w_old,
    w_new); touched_rows is the set of u whose out-row changed.
    """

    added: frozenset = field(default_factory=frozenset)
    removed: frozenset = field(default_factory=frozenset)
    reweighted: frozenset = field(default_factory=frozenset)
    touched_rows: frozenset = field(default_factory=frozenset)

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.reweighted)


def edge_delta(prev: GraphSnapshot, next_: GraphSnapshot) -> EdgeDelta:
    """Delta such that applying it to prev reproduces next_ exactly."""
    if prev.n != next_.n:
        raise ValueError(f"node count mismatch: {prev.n} vs {next_.n}")
    a, b = prev.edge_dict(), next_.edge_dict()
    added, removed, reweighted, touched = [], [], [], set()
    for key, w in b.items():
        if key not in a:
            added.append((*key, w))
            touched.add(key[0])
        elif a[key] != w:
            reweighted.append((*key, a[key], w))
            touched.add(key[0])
    for key, w in a.items():
        if key not in b:
            removed.append((*key, w))
            touched.add(key[0])
    return EdgeDelta(
        added=frozenset(added),
        removed=frozenset(removed),
        reweighted=frozenset(reweighted),
        touched_rows=frozenset(touched),
    )


def dense_adjacency(g: GraphSnapshot) -> np.ndarray:
    """Dense n x n adjacency matrix; refuses graphs above DEFAULT_DENSE_LIMIT."""
    if g.n > DEFAULT_DENSE_LIMIT:
        raise ValueError(f"n={g.n} exceeds dense limit {DEFAULT_DENSE_LIMIT}")
    a = np.zeros((g.n, g.n))
    for (u, v), w in g.edge_dict().items():
        a[u, v] = w
    return a


def load_snapshots(path) -> SnapshotSequence:
    """Parse the snapshot text format.

    Line 1 is `T N`; every following non-comment line is `t u v w`. Lines
    starting with `#` and blank lines are ignored. Raises SnapshotParseError
    with a line number on any malformed content.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    header_idx = None
    for i, line in enumerate(lines):
        s = line.strip()
        if s and not s.startswith("#"):
            header_idx = i
            break
    if header_idx is None:
        raise SnapshotParseError("header", len(lines), "missing `T N` header")
    parts = lines[header_idx].split()
    if len(parts) != 2:
        raise SnapshotParseError("header", header_idx + 1, f"expected `T N`, got {lines[header_idx].strip()!r}")
    try:
        t_count, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise SnapshotParseError("header", header_idx + 1, f"non-integer header {lines[header_idx].strip()!r}") from None
    if t_count < 1 or n < 0:
        raise SnapshotParseError("header", header_idx + 1, f"invalid header values T={t_count} N={n}")

    per_t: list[dict] = [dict() for _ in range(t_count)]
    for i in range(header_idx + 1, len(lines)):
        s = lines[i].strip()
        if not s or s.startswith("#"):
            continue
        no = i + 1
        toks = s.split()
        if len(toks) != 4:
            raise SnapshotParseError("edge-format", no, f"expected `t u v w`, got {s!r}")
        try:
            t, u, v = int(toks[0]), int(toks[1]), int(toks[2])
            w = float(toks[3])
        except ValueError:
            raise SnapshotParseError("edge-format", no, f"non-numeric edge line {s!r}") from None
        if not 0 <= t < t_count:
            raise SnapshotParseError("time-range", no, f"snapshot index {t} outside [0,{t_count})")
        if not (0 <= u < n and 0 <= v < n):
            raise SnapshotParseError("node-range", no, f"node id outside [0,{n}) in {s!r}")
        if not math.isfinite(w) or w <= 0.0:
            raise SnapshotParseError("weight", no, f"non-positive weight {toks[3]}")
        if (u, v) in per_t[t]:
            raise SnapshotParseError("duplicate", no, f"duplicate edge ({t},{u},{v})")
        per_t[t][(u, v)] = w

    return SnapshotSequence(
        GraphSnapshot(n, ((u, v, w) for (u, v), w in adj.items())) for adj in per_t
    )


def save_snapshots(seq: SnapshotSequence, path) -> None:
    """Write the canonical form: `T N` header, edge lines sorted by (t, u, v)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(seq)} {seq.n}\n")
        for t, g in enumerate(seq):
            # 17 significant digits round-trip any float64 exactly
            fh.write("".join(["%d %d %d %.17g\n" % (t, u, v, w) for u, v, w in g.edges()]))
