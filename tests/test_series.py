"""EmbeddingSeries container and its text round trip."""

import numpy as np
import pytest

from dynembed.series import (EmbeddingSeries, _write_matrix,
                             load_embedding_series, save_embedding_series)
from oracles import write_matrix_ref


def _series(t_start=0, n=4, d=3, count=3):
    rng = np.random.default_rng(0)
    ys = [rng.normal(size=(n, d)) for _ in range(count)]
    zs = [rng.normal(size=(n, d)) for _ in range(count)]
    return EmbeddingSeries(y_src=ys, y_tgt=zs, t_start=t_start)


def test_accessors_and_times():
    s = _series(t_start=2)
    assert list(s.times()) == [2, 3, 4]
    assert s.n == 4 and s.d == 3
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
