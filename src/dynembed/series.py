"""Per-snapshot embedding container and its text file format.

An EmbeddingSeries holds source/target embedding matrices per snapshot. For
methods with a lookback window the first embedded snapshot may be later than
0; t_start records that offset. File format per snapshot and side: header
`n d`, then n rows of d reals (17 significant digits), files suffixed
`.src`/`.tgt`.
"""

import os
import re
from dataclasses import dataclass

import numpy as np


@dataclass
class EmbeddingSeries:
    y_src: list  # list of n x d arrays, one per embedded snapshot
    y_tgt: list
    t_start: int = 0

    def __post_init__(self):
        if len(self.y_src) != len(self.y_tgt):
            raise ValueError("source/target lists differ in length")
        if not self.y_src:
            raise ValueError("empty embedding series")
        shape = self.y_src[0].shape
        for m in list(self.y_src) + list(self.y_tgt):
            if m.shape != shape:
                raise ValueError("inconsistent embedding shapes across snapshots")
            if not np.all(np.isfinite(m)):
                raise ValueError("non-finite embedding entries")

    @property
    def d(self) -> int:
        return self.y_src[0].shape[1]

    @property
    def n(self) -> int:
        return self.y_src[0].shape[0]

    def times(self):
        """Snapshot indices covered by this series."""
        return range(self.t_start, self.t_start + len(self.y_src))

    def src_at(self, t: int) -> np.ndarray:
        return self.y_src[self._offset(t)]

    def tgt_at(self, t: int) -> np.ndarray:
        return self.y_tgt[self._offset(t)]

    def _offset(self, t: int) -> int:
        if t not in self.times():
            raise IndexError(f"no embedding for snapshot {t}; series covers {list(self.times())}")
        return t - self.t_start


def format_rows(m: np.ndarray) -> str:
    """One line per row of m, its entries to 17 significant digits."""
    row_format = " ".join(["%.17g"] * m.shape[1]) + "\n"
    return "".join([row_format % tuple(row) for row in m.tolist()])


def format_matrix(m: np.ndarray) -> str:
    """A `rows cols` header line, then format_rows(m)."""
    return f"{m.shape[0]} {m.shape[1]}\n" + format_rows(m)


def _write_matrix(path, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_matrix(m))


def _read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        n, d = (int(x) for x in fh.readline().split())
        m = np.loadtxt(fh, ndmin=2)
    if m.shape != (n, d):
        raise ValueError(f"{path}: header says {n}x{d}, body is {m.shape}")
    return m


def save_embedding_series(series: EmbeddingSeries, outdir, prefix: str) -> list:
    """Write `{prefix}_t{t}.src` and `.tgt` per embedded snapshot; returns paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for t in series.times():
        for side, m in (("src", series.src_at(t)), ("tgt", series.tgt_at(t))):
            p = os.path.join(outdir, f"{prefix}_t{t}.{side}")
            _write_matrix(p, m)
            paths.append(p)
    return paths


def load_embedding_series(outdir, prefix: str) -> EmbeddingSeries:
    """Load a series written by save_embedding_series."""
    pat = re.compile(re.escape(prefix) + r"_t(\d+)\.src$")
    times = sorted(
        int(m.group(1)) for f in os.listdir(outdir) if (m := pat.match(f))
    )
    if not times:
        raise FileNotFoundError(f"no `{prefix}_t*.src` files in {outdir}")
    if times != list(range(times[0], times[0] + len(times))):
        raise ValueError(f"non-contiguous snapshot files for prefix {prefix}: {times}")
    y_src = [_read_matrix(os.path.join(outdir, f"{prefix}_t{t}.src")) for t in times]
    y_tgt = [_read_matrix(os.path.join(outdir, f"{prefix}_t{t}.tgt")) for t in times]
    return EmbeddingSeries(y_src=y_src, y_tgt=y_tgt, t_start=times[0])
