"""Snapshot-sequence graph model with delta extraction and canonical text IO.

Graphs are weighted and directed over a node set that is fixed across time;
weight 0 encodes edge absence and all stored weights are strictly positive.
A snapshot is its edges as three read-only arrays sorted by (u, v), which
every consumer reads directly. Snapshots, sequences and deltas are immutable
after construction and safe to share across threads.

The snapshot file is ASCII with `\n` line ends: a `T N` header, then one
`t u v w` line per edge, sorted by (t, u, v), with w exactly as Python's
"%.17g" % w writes it. The writer builds a snapshot's lines as one byte
matrix from fixed-width, NUL-padded text tables (one `%d ` per node, one
series.format_rows text per distinct weight) and drops the padding;
int_lines does the same for the label and migration files. The tests hold
these writers byte for byte to the per-line writers in tests/oracles.py.
Every loader reads its file through data_lines, which skips blank lines and
`#` comments and numbers the rest as the file does.
"""

import math
from dataclasses import dataclass

import numpy as np

from .series import format_rows

DEFAULT_DENSE_LIMIT = 20_000


class SnapshotParseError(ValueError):
    """Raised on malformed snapshot files; carries the offending line number."""

    def __init__(self, kind: str, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.kind = kind
        self.line_no = line_no


class GraphSnapshot:
    """One weighted directed graph of len() edges: (rows[i], cols[i]) of
    weight weights[i], sorted by (u, v)."""

    __slots__ = ("n", "rows", "cols", "weights")

    def __init__(self, n: int, rows=(), cols=(), weights=()):
        if n < 0:
            raise ValueError("node count must be non-negative")
        self.n = n = int(n)
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if not rows.ndim == 1 or not rows.shape == cols.shape == weights.shape:
            raise ValueError("rows, cols and weights must be 1-D and of one length")
        bad = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"edge ({rows[i]},{cols[i]}) outside node range [0,{n})")
        bad = ~((0.0 < weights) & (weights < math.inf))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"edge ({rows[i]},{cols[i]}) has non-positive weight {weights[i]}")
        keys = rows * n + cols
        order = np.argsort(keys, kind="stable")  # linear on sorted input
        # indexing copies, so no caller array is shared or frozen
        self.rows, self.cols, self.weights = rows[order], cols[order], weights[order]
        for a in (self.rows, self.cols, self.weights):
            a.flags.writeable = False
        repeat = np.flatnonzero(np.diff(keys[order]) == 0)
        if repeat.size:
            raise ValueError(f"duplicate edge ({self.rows[repeat[0]]},{self.cols[repeat[0]]})")

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, GraphSnapshot):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols)
                and np.array_equal(self.weights, other.weights))

    def __repr__(self):
        return f"GraphSnapshot(n={self.n}, edges={len(self)})"


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


def _present(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the keys that occur in the ascending, non-negative sorted_keys."""
    # -1 closes the array, so a key beyond the last one finds no match
    return np.append(sorted_keys, -1)[np.searchsorted(sorted_keys, keys)] == keys


def _records(names: str, *columns) -> np.ndarray:
    """Read-only record array with one named field per column."""
    out = np.rec.fromarrays(columns, names=names)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class EdgeDelta:
    """Exact difference between two snapshots over the same node set.

    Each field is a read-only record array sorted by (u, v), one record per
    changed entry: added and removed have the fields u, v, w, and reweighted
    has u, v, w_old, w_new.
    """

    added: np.ndarray
    removed: np.ndarray
    reweighted: np.ndarray


def edge_delta(prev: GraphSnapshot, next_: GraphSnapshot) -> EdgeDelta:
    """Delta such that applying it to prev reproduces next_ exactly."""
    if prev.n != next_.n:
        raise ValueError(f"node count mismatch: {prev.n} vs {next_.n}")
    n = prev.n
    old_keys, new_keys = prev.rows * n + prev.cols, next_.rows * n + next_.cols
    kept = _present(old_keys, new_keys)  # edges of prev that next_ has
    held = _present(new_keys, old_keys)  # the same edges, in next_
    w_old, w_new = prev.weights[kept], next_.weights[held]
    changed = w_old != w_new
    return EdgeDelta(
        added=_records("u,v,w", next_.rows[~held], next_.cols[~held], next_.weights[~held]),
        removed=_records("u,v,w", prev.rows[~kept], prev.cols[~kept], prev.weights[~kept]),
        reweighted=_records("u,v,w_old,w_new", prev.rows[kept][changed],
                            prev.cols[kept][changed], w_old[changed], w_new[changed]),
    )


def dense_adjacency(g: GraphSnapshot) -> np.ndarray:
    """Dense n x n adjacency matrix; refuses graphs above DEFAULT_DENSE_LIMIT."""
    if g.n > DEFAULT_DENSE_LIMIT:
        raise ValueError(f"n={g.n} exceeds dense limit {DEFAULT_DENSE_LIMIT}")
    a = np.zeros((g.n, g.n))
    a[g.rows, g.cols] = g.weights
    return a


def data_lines(lines):
    """(line number, stripped text) of each of the lines, numbered from 1,
    that is neither blank nor a `#` comment."""
    for no, line in enumerate(lines, start=1):
        s = line.strip()
        if s and not s.startswith("#"):
            yield no, s


def load_snapshots(path) -> SnapshotSequence:
    """Parse the snapshot text format.

    Line 1 is `T N`; every following non-comment line is `t u v w`. Lines
    starting with `#` and blank lines are ignored. Raises SnapshotParseError
    with a line number on any malformed content.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    records = data_lines(lines)
    header_no, header = next(records, (None, None))
    if header is None:  # a missing header is reported at the last line
        raise SnapshotParseError("header", max(len(lines), 1), "missing `T N` header")
    parts = header.split()
    if len(parts) != 2:
        raise SnapshotParseError("header", header_no, f"expected `T N`, got {header!r}")
    try:
        t_count, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise SnapshotParseError("header", header_no, f"non-integer header {header!r}") from None
    if t_count < 1 or n < 0:
        raise SnapshotParseError("header", header_no, f"invalid header values T={t_count} N={n}")

    per_t: list[dict] = [dict() for _ in range(t_count)]
    for no, s in records:
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
        GraphSnapshot(n, [u for u, _ in adj], [v for _, v in adj], list(adj.values()))
        for adj in per_t
    )


def _fields(texts: np.ndarray, index) -> np.ndarray:
    """Row i holds texts[index[i]], NUL-padded to the width of the bytes
    array texts."""
    return texts[index].view(np.uint8).reshape(len(index), texts.itemsize)


def _int_fields(values, end: bytes) -> np.ndarray:
    """Row i holds `%d` of the int values[i], and end; each distinct value is
    formatted once."""
    distinct, slot = np.unique(np.asarray(values, dtype=np.int64), return_inverse=True)
    return _fields(np.array([b"%d%s" % (v, end) for v in distinct.tolist()], dtype=bytes), slot)


def _text_lines(*fields) -> bytes:
    """The rows of the NUL-padded field matrices side by side, padding dropped."""
    return np.concatenate(fields, axis=1).tobytes().translate(None, b"\0")


def int_lines(*columns) -> bytes:
    """One line per index of the int columns, its values joined by spaces."""
    ends = [b" "] * (len(columns) - 1) + [b"\n"]
    return _text_lines(*(_int_fields(c, end) for c, end in zip(columns, ends)))


def save_snapshots(seq: SnapshotSequence, path) -> None:
    """Write the canonical form: `T N` header, edge lines sorted by (t, u, v)."""
    nodes = _int_fields(np.arange(seq.n), b" ")
    with open(path, "wb") as fh:
        fh.write(b"%d %d\n" % (len(seq), seq.n))
        for t, g in enumerate(seq):
            t_text = np.frombuffer(b"%d " % t, dtype=np.uint8)
            # each distinct weight is formatted once
            weights, slot = np.unique(g.weights, return_inverse=True)
            text = np.array(format_rows(weights[:, None]).splitlines(keepends=True), dtype=bytes)
            fh.write(_text_lines(np.broadcast_to(t_text, (len(g), t_text.size)), nodes[g.rows],
                                 nodes[g.cols], _fields(text, slot)))
