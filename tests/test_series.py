"""EmbeddingSeries container, its text round trip, and the "%.17g" row
formatter, held byte for byte to the per-value writers in tests/oracles.py
through every file format that uses it."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dynembed import evaluation, series
from dynembed.ae import MlpParams, save_mlp_params
from dynembed.evaluation import export_projection
from dynembed.series import (EmbeddingSeries, _write_matrix, format_rows,
                             load_embedding_series, save_embedding_series)
from dynembed.svd_embed import RestartLogEntry, save_restart_log
from oracles import (projection_lines_ref, save_mlp_params_ref, save_restart_log_ref,
                     write_matrix_ref)


def _series(t_start=0, n=4, d=3, count=3):
    rng = np.random.default_rng(0)
    ys = [rng.normal(size=(n, d)) for _ in range(count)]
    zs = [rng.normal(size=(n, d)) for _ in range(count)]
    return EmbeddingSeries(y_src=ys, y_tgt=zs, t_start=t_start)


def test_accessors_and_times():
    s = _series(t_start=2)
    assert list(s.times()) == [2, 3, 4]
    assert np.array_equal(s.src_at(3), s.y_src[1])
    assert np.array_equal(s.tgt_at(4), s.y_tgt[2])


def test_out_of_range_lookup():
    s = _series(t_start=2)
    with pytest.raises(IndexError, match="covers"):
        s.src_at(1)
    with pytest.raises(IndexError):
        s.tgt_at(5)


def test_validation():
    y = [np.zeros((2, 2))]
    with pytest.raises(ValueError, match="length"):
        EmbeddingSeries(y_src=y, y_tgt=[])
    with pytest.raises(ValueError, match="empty"):
        EmbeddingSeries(y_src=[], y_tgt=[])
    with pytest.raises(ValueError, match="shapes"):
        EmbeddingSeries(y_src=[np.zeros((2, 2))], y_tgt=[np.zeros((3, 2))])
    with pytest.raises(ValueError, match="finite"):
        EmbeddingSeries(y_src=[np.full((2, 2), np.nan)], y_tgt=[np.zeros((2, 2))])


def test_round_trip_exact(tmp_path):
    s = _series(t_start=1)
    paths = save_embedding_series(s, tmp_path, "d2v_ae")
    assert len(paths) == 6
    loaded = load_embedding_series(tmp_path, "d2v_ae")
    assert loaded.t_start == 1
    for t in s.times():
        # 17 significant digits round-trip float64 exactly
        assert np.array_equal(loaded.src_at(t), s.src_at(t))
        assert np.array_equal(loaded.tgt_at(t), s.tgt_at(t))


def test_save_with_custom_prefix(tmp_path):
    s = _series(count=2)
    save_embedding_series(s, tmp_path, prefix="emb")
    assert (tmp_path / "emb_t0.src").exists()
    assert (tmp_path / "emb_t1.tgt").exists()
    loaded = load_embedding_series(tmp_path, "emb")
    assert np.array_equal(loaded.src_at(0), s.src_at(0))


def test_file_header(tmp_path):
    s = _series(count=1)
    save_embedding_series(s, tmp_path, prefix="x")
    first = (tmp_path / "x_t0.src").read_text().splitlines()[0]
    assert first == "4 3"


def test_non_contiguous_files_rejected(tmp_path):
    s = _series(count=1)
    save_embedding_series(s, tmp_path, prefix="p")
    save_embedding_series(_series(t_start=2, count=1), tmp_path, prefix="p")
    with pytest.raises(ValueError, match="non-contiguous"):
        load_embedding_series(tmp_path, "p")


def test_missing_prefix(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_embedding_series(tmp_path, "nothing")


def test_header_body_mismatch_detected(tmp_path):
    p = tmp_path / "q_t0.src"
    p.write_text("2 2\n1 2\n")
    (tmp_path / "q_t0.tgt").write_text("1 2\n1 2\n")
    with pytest.raises(ValueError, match="header"):
        load_embedding_series(tmp_path, "q")


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -3.0, 1e16, 2.0**53 + 2,
               0.1, 1 / 3, 2.2250738585072014e-308, 1.7976931348623157e308]


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (50, 32), (3, 0), (0, 4)])
def test_writer_matches_per_float_oracle_on_random(tmp_path, shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    m = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    _write_matrix(tmp_path / "new.src", m)
    write_matrix_ref(tmp_path / "ref.src", m)
    assert (tmp_path / "new.src").read_bytes() == (tmp_path / "ref.src").read_bytes()


def test_writer_matches_per_float_oracle_on_edge_values(tmp_path):
    m = np.array(EDGE_VALUES).reshape(2, -1)
    _write_matrix(tmp_path / "new.src", m)
    write_matrix_ref(tmp_path / "ref.src", m)
    new = (tmp_path / "new.src").read_bytes()
    assert new == (tmp_path / "ref.src").read_bytes()
    assert new.split(b"\n")[1].split()[:4] == [b"0", b"-0", b"4.9406564584124654e-324",
                                               b"-4.9406564584124654e-324"]


# --- every writer of reals against its per-value oracle ----------------------


def _matrix_bytes(values, d):
    m = values.reshape(-1, 3) if values.size % 3 == 0 else values.reshape(1, -1)
    _write_matrix(d / "new.src", m)
    write_matrix_ref(d / "ref.src", m)
    return (d / "new.src").read_bytes(), (d / "ref.src").read_bytes()


def _model_bytes(values, d):
    # two layers: the values fill the first weight matrix, rows x 2, and its
    # bias row repeats the last two of them
    rows = max(values.size // 2, 1)
    flat = np.resize(values, 2 * rows) if values.size else np.zeros(2 * rows)
    params = MlpParams(weights=[flat.reshape(rows, 2), np.ones((2, rows))],
                       biases=[flat[-2:].copy(), np.zeros(rows)], n_encoder_layers=1)
    save_mlp_params(params, d / "new.txt")
    save_mlp_params_ref(params, d / "ref.txt")
    return (d / "new.txt").read_bytes(), (d / "ref.txt").read_bytes()


def _restart_log_bytes(values, d):
    log = [RestartLogEntry(t, t % 2 == 1, cur, bound)
           for t, (cur, bound) in enumerate(zip(values.tolist(), values[::-1].tolist()))]
    save_restart_log(log, d / "new.txt")
    save_restart_log_ref(log, d / "ref.txt")
    return (d / "new.txt").read_bytes(), (d / "ref.txt").read_bytes()


def _projection_bytes(values, d):
    # export_projection writes zeros for a single node, without projecting
    coords = np.resize(values, (max(values.size // 2, 2), 2)) if values.size else np.zeros((2, 2))
    n = coords.shape[0]
    labels = np.arange(n) % 3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "pca_project_2d", lambda y: coords)
        y = np.ones((n, 3))
        export_projection(EmbeddingSeries(y_src=[y], y_tgt=[y]), 0, labels, {0, n - 1},
                          d / "new.txt")
    ref = projection_lines_ref(coords, labels, {0, n - 1}).encode("ascii")
    return (d / "new.txt").read_bytes(), ref


WRITERS = [_matrix_bytes, _model_bytes, _restart_log_bytes, _projection_bytes]
writers = pytest.mark.parametrize("write", WRITERS, ids=lambda w: w.__name__[1:-6])


def _assert_same(write, values, d):
    new, ref = write(np.asarray(values, dtype=np.float64), d)
    assert new == ref


@writers
@settings(max_examples=150, deadline=None)
@given(values=arrays(np.float64, st.integers(0, 40),
                     elements=st.floats(allow_nan=False, allow_infinity=False)
                     | st.floats(1e-4, 1e15) | st.floats(-1e15, -1e-4)))
def test_writers_match_oracles_on_drawn_floats(tmp_path_factory, write, values):
    _assert_same(write, values, tmp_path_factory.mktemp("drawn"))


def _near_powers_of_ten():
    """Five floats below, at and five above every power of ten from 1e-5 to
    1e17, both signs: where the decimal exponent estimate may miss."""
    out = []
    for e in range(-5, 18):
        x = float(f"1e{e}")
        for _ in range(5):
            x = math.nextafter(x, 0.0)
        for _ in range(11):
            out += [x, -x]
            x = math.nextafter(x, math.inf)
    return out


@writers
def test_writers_match_oracles_near_powers_of_ten(tmp_path, write):
    _assert_same(write, _near_powers_of_ten(), tmp_path)


def _decimal_ties(count_per_exponent=40, seed=7):
    """Dyadic x = M / 2^j with M odd and x in [10^e, 10^(e + 1)), j = 17 - e:
    exactly 18 significant digits, the last a 5, so rounding to 17 digits is
    an exact tie, broken to even."""
    rng = np.random.default_rng(seed)
    out = []
    for e in range(-4, 15):
        j = 17 - e
        lo, hi = math.ceil(10.0**e * 2**j), math.floor(10.0 ** (e + 1) * 2**j)
        for m in rng.integers(lo // 2, hi // 2, size=count_per_exponent).tolist():
            x = (2 * m + 1) / 2**j
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
            out += [x, -x]
    return out


@writers
def test_writers_match_oracles_on_decimal_ties(tmp_path, write):
    ties = _decimal_ties()
    # both directions of the tie occur
    assert {int(Decimal(x).as_tuple().digits[16]) % 2 for x in ties} == {0, 1}
    _assert_same(write, ties, tmp_path)


B = series._BLOCK


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0), (1, B - 1), (1, B), (1, B + 1),
                                   (2, B // 2), (B // 7 + 1, 7), (3, B // 3 + 1)])
def test_matrix_writer_across_block_boundaries(tmp_path, shape):
    rng = np.random.default_rng(shape[0] + shape[1])
    m = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 18, size=shape)
    # values that take Python's "%.17g" at and around the block boundary,
    # some of them 24 characters long
    flat = m.reshape(-1)
    for i in (B - 2, B - 1, B, B + 1):
        if i < flat.size:
            flat[i] = [0.0, -1.2345678901234567e-300, -0.0, 5e-324][i % 4]
    _write_matrix(tmp_path / "new.src", m)
    write_matrix_ref(tmp_path / "ref.src", m)
    assert (tmp_path / "new.src").read_bytes() == (tmp_path / "ref.src").read_bytes()
    assert format_rows(m).count(b"\n") == shape[0]
