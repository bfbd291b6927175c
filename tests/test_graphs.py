"""Graph model, delta extraction, and the snapshot file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynembed.graphs import (DEFAULT_DENSE_LIMIT, EdgeDelta, GraphSnapshot,
                             SnapshotParseError, SnapshotSequence, dense_adjacency,
                             edge_delta, load_snapshots, save_snapshots)
from oracles import apply_delta, save_snapshots_ref


def _snapshot(n, edges):
    return GraphSnapshot(n, edges)


# --- construction and validation ---------------------------------------


def test_snapshot_basics():
    g = _snapshot(3, [(0, 1, 1.0), (2, 0, 0.5)])
    assert g.num_edges == 2
    assert g.weight(0, 1) == 1.0
    assert g.weight(1, 0) == 0.0
    assert g.has_edge(2, 0) and not g.has_edge(0, 2)
    assert g.edges() == [(0, 1, 1.0), (2, 0, 0.5)]
    assert g.edge_pairs() == {(0, 1), (2, 0)}


def test_snapshot_rejects_bad_edges():
    with pytest.raises(ValueError, match="outside node range"):
        _snapshot(2, [(0, 2, 1.0)])
    with pytest.raises(ValueError, match="non-positive weight"):
        _snapshot(2, [(0, 1, 0.0)])
    with pytest.raises(ValueError, match="non-positive weight"):
        _snapshot(2, [(0, 1, -1.0)])
    with pytest.raises(ValueError, match="duplicate"):
        _snapshot(2, [(0, 1, 1.0), (0, 1, 2.0)])
    with pytest.raises(ValueError):
        GraphSnapshot(-1)


def test_self_loops_permitted():
    g = _snapshot(2, [(1, 1, 3.0)])
    assert g.weight(1, 1) == 3.0


def test_sequence_requires_shared_n():
    with pytest.raises(ValueError, match="expected"):
        SnapshotSequence([_snapshot(2, []), _snapshot(3, [])])
    with pytest.raises(ValueError):
        SnapshotSequence([])
    seq = SnapshotSequence([_snapshot(2, []), _snapshot(2, [(0, 1, 1.0)])])
    assert len(seq) == 2 and seq.n == 2


# --- dense adjacency ----------------------------------------------------


def test_dense_single_edge():
    a = dense_adjacency(_snapshot(2, [(0, 1, 1.0)]))
    assert np.array_equal(a, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dense_empty():
    assert np.array_equal(dense_adjacency(_snapshot(3, [])), np.zeros((3, 3)))


def test_dense_row_sums_match_out_strength():
    rng = np.random.default_rng(0)
    edges = [(int(u), int(v), float(w)) for u, v, w in
             {(rng.integers(8), rng.integers(8), round(rng.random() + 0.1, 3))
              for _ in range(20)}]
    # dedupe (u, v) keys
    seen, uniq = set(), []
    for u, v, w in edges:
        if (u, v) not in seen:
            seen.add((u, v))
            uniq.append((u, v, w))
    g = _snapshot(8, uniq)
    a = dense_adjacency(g)
    for u in range(8):
        want = sum(w for x, _, w in uniq if x == u)
        assert a[u].sum() == pytest.approx(want, abs=1e-12)
    assert np.count_nonzero(a) == g.num_edges


def test_dense_limit():
    with pytest.raises(ValueError, match="dense limit"):
        dense_adjacency(_snapshot(DEFAULT_DENSE_LIMIT + 1, []))


# --- deltas -------------------------------------------------------------


def test_delta_identical_snapshots_is_empty():
    g = _snapshot(3, [(0, 1, 1.0)])
    d = edge_delta(g, g)
    assert d.is_empty and d.touched_rows == frozenset()


def test_delta_hand_example():
    prev = _snapshot(4, [(0, 1, 1.0)])
    nxt = _snapshot(4, [(0, 1, 2.0), (2, 3, 1.0)])
    d = edge_delta(prev, nxt)
    assert d.reweighted == frozenset({(0, 1, 1.0, 2.0)})
    assert d.added == frozenset({(2, 3, 1.0)})
    assert d.removed == frozenset()
    assert d.touched_rows == frozenset({0, 2})


def test_delta_mismatched_n():
    with pytest.raises(ValueError, match="mismatch"):
        edge_delta(_snapshot(2, []), _snapshot(3, []))


def test_apply_delta_validates():
    g = _snapshot(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="removed"):
        apply_delta(g, EdgeDelta(removed=frozenset({(0, 1, 2.0)})))
    with pytest.raises(ValueError, match="already present"):
        apply_delta(g, EdgeDelta(added=frozenset({(0, 1, 3.0)})))
    with pytest.raises(ValueError, match="reweighted"):
        apply_delta(g, EdgeDelta(reweighted=frozenset({(0, 1, 9.0, 1.0)})))


@st.composite
def snapshot_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=100))
    weights = st.sampled_from([0.5, 1.0, 2.0])  # small pool invites reweights
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    def edge_set():
        d = draw(st.dictionaries(pair, weights, max_size=60))
        return [(u, v, w) for (u, v), w in d.items()]
    return GraphSnapshot(n, edge_set()), GraphSnapshot(n, edge_set())


@settings(max_examples=80, deadline=None)
@given(snapshot_pairs())
def test_delta_apply_round_trip(pair):
    a, b = pair
    assert apply_delta(a, edge_delta(a, b)) == b


def test_delta_touched_rows_exact():
    a = _snapshot(5, [(0, 1, 1.0), (3, 2, 1.0), (4, 4, 1.0)])
    b = _snapshot(5, [(0, 1, 1.0), (3, 2, 2.0)])
    d = edge_delta(a, b)
    assert d.touched_rows == frozenset({3, 4})


# --- file format --------------------------------------------------------


def test_load_minimal(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("1 2\n0 0 1 1.0\n")
    seq = load_snapshots(f)
    assert len(seq) == 1 and seq.n == 2
    assert seq[0].edges() == [(0, 1, 1.0)]


def test_save_empty_snapshot(tmp_path):
    f = tmp_path / "g.txt"
    save_snapshots(SnapshotSequence([_snapshot(3, [])]), f)
    assert f.read_text() == "1 3\n"


def test_save_canonicalizes_order(tmp_path):
    f = tmp_path / "g.txt"
    g = _snapshot(3, [(2, 0, 1.0), (0, 2, 1.0), (0, 1, 1.0)])
    save_snapshots(SnapshotSequence([g]), f)
    assert f.read_text() == "1 3\n0 0 1 1\n0 0 2 1\n0 2 0 1\n"


def test_load_ignores_comments_and_blanks(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("# a comment\n\n2 3\n# more\n1 0 1 2.5\n\n0 2 1 1\n")
    seq = load_snapshots(f)
    assert seq[0].edges() == [(2, 1, 1.0)]
    assert seq[1].edges() == [(0, 1, 2.5)]


def test_save_load_round_trip_to_canonical(tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("# header comment\n2 4\n1 3 2 1.5\n0 0 1 1\n1 0 1 1\n")
    seq = load_snapshots(raw)
    canon = tmp_path / "canon.txt"
    save_snapshots(seq, canon)
    assert canon.read_text() == "2 4\n0 0 1 1\n1 0 1 1\n1 3 2 1.5\n"
    assert load_snapshots(canon) == seq


@st.composite
def sequences(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    t_count = draw(st.integers(min_value=1, max_value=4))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    wt = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False,
                   allow_infinity=False)
    snaps = []
    for _ in range(t_count):
        d = draw(st.dictionaries(pair, wt, max_size=25))
        snaps.append(GraphSnapshot(n, [(u, v, w) for (u, v), w in d.items()]))
    return SnapshotSequence(snaps)


@settings(max_examples=60, deadline=None)
@given(sequences())
def test_load_save_load_fixpoint(tmp_path_factory, seq):
    d = tmp_path_factory.mktemp("fixpoint")
    first, second = d / "a.txt", d / "b.txt"
    save_snapshots(seq, first)
    loaded = load_snapshots(first)
    assert loaded == seq  # exact weight equality
    save_snapshots(loaded, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("text, kind, line_no", [
    ("# only comments\n", "header", 1),
    ("1 2 3\n", "header", 1),
    ("x y\n", "header", 1),
    ("0 2\n", "header", 1),
    ("1 2\n0 0 1\n", "edge-format", 2),
    ("1 2\n0 0 one 1.0\n", "edge-format", 2),
    ("1 2\n1 0 1 1.0\n", "time-range", 2),
    ("1 2\n0 0 2 1.0\n", "node-range", 2),
    ("1 2\n0 0 1 0.0\n", "weight", 2),
    ("1 2\n0 0 1 -3\n", "weight", 2),
    ("1 2\n0 0 1 1.0\n0 0 1 2.0\n", "duplicate", 3),
])
def test_parse_errors_carry_kind_and_line(tmp_path, text, kind, line_no):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    with pytest.raises(SnapshotParseError) as exc:
        load_snapshots(f)
    assert exc.value.kind == kind
    assert exc.value.line_no == line_no
    assert f"line {line_no}" in str(exc.value)


@settings(max_examples=40, deadline=None)
@given(snapshot_pairs())
def test_save_matches_per_edge_oracle(tmp_path_factory, pair):
    d = tmp_path_factory.mktemp("fmt")
    seq = SnapshotSequence(pair)
    save_snapshots(seq, d / "new.txt")
    save_snapshots_ref(seq, d / "ref.txt")
    assert (d / "new.txt").read_bytes() == (d / "ref.txt").read_bytes()


def test_save_matches_per_edge_oracle_on_edge_weights(tmp_path):
    weights = [5e-324, 1e300, 1.7976931348623157e308, 3.0, 1e16, 0.1, 1 / 3]
    seq = SnapshotSequence([_snapshot(12, [(i, 11 - i, w) for i, w in enumerate(weights)]),
                            _snapshot(12, [(0, 0, 2.0)])])
    save_snapshots(seq, tmp_path / "new.txt")
    save_snapshots_ref(seq, tmp_path / "ref.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
    assert load_snapshots(tmp_path / "new.txt") == seq
