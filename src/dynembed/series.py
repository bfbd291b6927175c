"""Per-snapshot embedding container, its text file format, and the row
formatter every writer of reals uses.

An EmbeddingSeries holds source/target embedding matrices per snapshot. For
methods with a lookback window the first embedded snapshot may be later than
0; t_start records that offset. File format per snapshot and side: header
`n d`, then n rows of d reals, files suffixed `.src`/`.tgt`.

format_rows writes the rows of a float64 matrix as ASCII lines, values
joined by single spaces and each line ended by `\n`, every value exactly as
Python's "%.17g" % x writes it (17 significant digits, so it reads back to
the same float64). It works on whole blocks of values with exact integer
arithmetic; see the comment above _layout_tables. Embeddings, models,
projections and the restart log all go through it, and the tests hold each
of those files byte for byte to the per-value writers in tests/oracles.py.
write_rows and write_matrix write the same text to a file one block at a
time; the embedding and model files are written that way.
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


# Exact "%.17g" of float64 arrays, without a per-value Python call.
#
# For 1e-4 <= |x| < 1e15, "%.17g" % x is positional: the 17 digits of
# D = round_half_even(|x| * 10^k), k = 16 - X, where D lies in [10^16, 10^17)
# and X is the decimal exponent, with the point after digit X (or "0." and
# -X - 1 zeros before them when X < 0), trailing fraction zeros and a bare
# point dropped. Write |x| = M 2^e with M < 2^53 and s = -(e + k); then
# |x| 10^k = M 5^k / 2^s, and its floor F follows from M 5^k - G 2^s =
# (F - G) 2^s + r with 0 <= r < 2^s, for the guess G = y - 64 read off the
# float product y = fl(|x| 10^k). A value takes this fast path only when
#   * 1e-4 <= |x| < 1e15, so that x is normal and "%g" is positional;
#   * 1e16 <= y < 1e17, so |y - M 5^k / 2^s| <= 8 (half an ulp of y) and
#     56 <= F - G <= 72;
#   * 1 <= s <= 56, so that M 5^k - G 2^s < 73 * 2^56 < 2^64 and uint64
#     arithmetic, which keeps both terms mod 2^64, gives it exactly (s runs
#     from 1 to 46 on the range above);
#   * D, rounded half to even from F and r, lies in [10^16, 10^17), which
#     fails only where log10 put X one off near a power of ten.
# Every other value (zero, -0, subnormals, exponent form, |x| >= 1e15, the
# misses) is formatted by Python's "%.17g" itself and spliced in.

# values per block; a block's temporaries take about 160 bytes per value,
# about 2.5 MiB here
_BLOCK = 1 << 14
_U = np.uint64
_P10 = 10.0 ** np.arange(23)  # exact in float64
_P5 = np.array([5**k for k in range(23)], dtype=np.uint64)


def _layout_tables():
    """Per key (((X + 5) * 2 + negative) * 17 + last) * 2 + newline, with X in
    [-5, 15] and last the index of the last nonzero of the 17 digits: the
    byte masks that keep the digits before the point and the digits after
    it, the constant bytes (sign, point, leading zeros, separator), and the
    shift that moves the fraction digits to their place. Each mask and
    constant is a 24-byte field as 3 little-endian uint64 words."""
    keep, moved, const, shift = [], [], [], []
    for x in range(-5, 16):
        for neg in (0, 1):
            for last in range(17):
                for newline in (0, 1):
                    k, m, c = bytearray(24), bytearray(24), bytearray(24)
                    c[0] = ord("-") if neg else 0
                    if x >= 0:
                        frac = max(last - x, 0)
                        k[neg:neg + x + 1] = b"\xff" * (x + 1)
                        if frac:
                            c[neg + x + 1] = ord(".")
                        m[neg + x + 2:neg + x + 2 + frac] = b"\xff" * frac
                        end = neg + x + 1 + (frac + 1 if frac else 0)
                        lead = neg + 1
                    else:
                        lead = neg + 1 - x
                        c[neg:lead] = b"0." + b"0" * (-x - 1)
                        m[lead:lead + last + 1] = b"\xff" * (last + 1)
                        end = lead + last + 1
                    if end < 24:  # false only for keys that no fast value has
                        c[end] = ord("\n" if newline else " ")
                    keep.append(k)
                    moved.append(m)
                    const.append(c)
                    shift.append(8 * lead)
    words = (np.frombuffer(b"".join(t), dtype="<u8").reshape(-1, 3).T.copy()
             for t in (keep, moved, const))
    return (*words, np.array(shift, dtype=np.uint64))


_KEEP, _MOVED, _CONST, _SHIFT = _layout_tables()


def _shift_left(w: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The 192-bit integers whose little-endian words are the rows of w,
    shifted left by bits < 64."""
    out = w << bits
    out[1:] |= w[:-1] >> (_U(64) - bits)  # a shift by 64 gives 0 in numpy
    return out


def _digits8(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each v < 10^8 as the bytes of one word, most
    significant first: v splits into two 4-digit, four 2-digit and eight
    1-digit lanes, each quotient taken by a multiply and shift that is
    exact on its lane's range."""
    hi = (v * _U(109951163)) >> _U(40)  # v // 10^4
    v = hi | ((v - hi * _U(10000)) << _U(32))
    hi = ((v * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)  # lanes // 100
    v = hi | ((v - hi * _U(100)) << _U(16))
    hi = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # lanes // 10
    return hi | ((v - hi * _U(10)) << _U(8))


def _significands(x: np.ndarray):
    """(dec, e10, fast): the 17-digit decimal significand D and exponent X
    of each |x|, and whether x takes the fast path."""
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e15)
    ax[~fast] = 1.0  # keeps every intermediate below in range
    e10 = np.floor(np.log10(ax)).astype(np.int64)  # X, within [-5, 15]
    k = 16 - e10
    y = ax * _P10[k]
    fast &= (y >= 1e16) & (y < 1e17)
    bits = ax.view(np.uint64)
    s = _U(1075) - (bits >> _U(52)) - k.astype(np.uint64)
    fast &= (s - _U(1)) < _U(56)
    guess = y.astype(np.uint64) - _U(64)
    mant = (bits & _U((1 << 52) - 1)) | _U(1 << 52)
    diff = mant * _P5[k] - (guess << s)
    floor = guess + (diff >> s)
    half = _U(1) << (s - _U(1))
    rem = diff & ((half << _U(1)) - _U(1))
    dec = floor + (rem + (floor & _U(1)) > half)  # round half to even
    fast &= (dec - _U(10**16)) < _U(9 * 10**16)  # 10^16 <= dec < 10^17
    return dec, e10, fast


def _digit_words(dec: np.ndarray):
    """(digits, last): the 17 digits of each dec as ASCII in 3 little-endian
    words, and the index of the last nonzero one."""
    n = dec.shape[0]
    # dec = d0 * 10^16 + hi * 10^8 + lo
    head = dec // _U(10**8)
    d0 = head // _U(10**8)
    parts = _digits8(np.concatenate([head - d0 * _U(10**8), dec - head * _U(10**8)]))
    # 1 + index of the last nonzero digit byte of each word, from the
    # exponent of a float holding one flag bit per nonzero byte (0 for none;
    # the flags sit 8 bits apart, so rounding cannot move the top one)
    flags = (parts + _U(0x7F7F7F7F7F7F7F7F)) & _U(0x8080808080808080)
    top = np.maximum((flags.astype(np.float64).view(np.uint64) >> _U(55)).astype(np.int64)
                     - 127, 0)
    last = np.where(top[n:] > 0, top[n:] + 8, top[:n])
    parts |= _U(0x3030303030303030)
    digits = np.stack([(d0 | _U(0x30)) | (parts[:n] << _U(8)),
                       (parts[:n] >> _U(56)) | (parts[n:] << _U(8)),
                       parts[n:] >> _U(56)])
    return digits, last


def _format_block(x: np.ndarray, newline: np.ndarray) -> bytearray:
    """Each x as "%.17g" text, then a space, or a newline where newline is 1."""
    n = x.shape[0]
    # two functions of their own, so that the intermediates of each step
    # are freed when it returns: that halves the block's peak memory
    dec, e10, fast = _significands(x)
    digits, last = _digit_words(dec)

    neg = np.signbit(x)
    key = (((e10 + 5) * 2 + neg) * 17 + last) * 2 + newline
    text = _shift_left(digits, neg * _U(8)) & _KEEP.take(key, axis=1)
    text |= _shift_left(digits, _SHIFT[key]) & _MOVED.take(key, axis=1)
    text |= _CONST.take(key, axis=1)

    slow = np.flatnonzero(~fast)
    slow_text = [b"%.17g" % v for v in x[slow].tolist()]
    width = 4 if any(len(t) > 23 for t in slow_text) else 3  # words per field
    out = bytearray(8 * width * n)
    fields = np.frombuffer(out, dtype="<u8").reshape(n, width)
    fields[:, :3] = text.T
    if slow.size:
        seps = [b"\n" if nl else b" " for nl in newline[slow].tolist()]
        padded = b"".join([(t + sep).ljust(8 * width, b"\0") for t, sep in zip(slow_text, seps)])
        fields[slow] = np.frombuffer(padded, dtype="<u8").reshape(-1, width)
    return out.translate(None, b"\0")


def _text_blocks(m: np.ndarray):
    """format_rows(m), one block of _BLOCK values at a time."""
    m = np.asarray(m, dtype=np.float64)
    rows, cols = m.shape
    if cols == 0:
        yield b"\n" * rows
        return
    flat = m.ravel()
    for i in range(0, flat.size, _BLOCK):
        x = flat[i:i + _BLOCK]
        newline = np.zeros(x.size, dtype=np.int64)
        newline[cols - 1 - i % cols::cols] = 1
        yield _format_block(x, newline)


def format_rows(m: np.ndarray) -> bytes:
    """One line per row of m, its entries as "%.17g" joined by spaces."""
    return b"".join(_text_blocks(m))


def write_rows(fh, m: np.ndarray) -> None:
    """format_rows(m) written to the binary file fh block by block, so that
    only one block's text is held at a time."""
    for text in _text_blocks(m):
        fh.write(text)


def write_matrix(fh, m: np.ndarray) -> None:
    """A `rows cols` header line, then write_rows(fh, m)."""
    fh.write(b"%d %d\n" % m.shape)
    write_rows(fh, m)


def _write_matrix(path, m: np.ndarray) -> None:
    with open(path, "wb") as fh:
        write_matrix(fh, m)


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
