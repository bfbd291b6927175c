"""Graph model, delta extraction, and the snapshot file format.

The array path is checked against the dict of (u, v) -> w that it replaced
(tests/oracles.py): the same deltas, dense matrices, text bytes and static
link prediction splits on random graphs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynembed.evaluation import EvalError, static_lp_split
from dynembed.graphs import (DEFAULT_DENSE_LIMIT, EdgeDelta, GraphSnapshot,
                             SnapshotParseError, SnapshotSequence, dense_adjacency,
                             edge_delta, int_lines, load_snapshots, save_snapshots)
from dynembed.rng import Rng
from oracles import (SnapshotRef, apply_delta, dense_adjacency_ref, edge_delta_ref,
                     save_snapshots_ref, snapshot, static_lp_split_ref)


def _triples(g):
    return list(zip(g.rows.tolist(), g.cols.tolist(), g.weights.tolist()))


EDGE = [("u", np.int64), ("v", np.int64), ("w", np.float64)]
REWEIGHT = [("u", np.int64), ("v", np.int64), ("w_old", np.float64), ("w_new", np.float64)]


def _delta(added=(), removed=(), reweighted=()):
    return EdgeDelta(added=np.array(list(added), dtype=EDGE),
                     removed=np.array(list(removed), dtype=EDGE),
                     reweighted=np.array(list(reweighted), dtype=REWEIGHT))


def _delta_rows(d):
    return {int(u) for records in (d.added, d.removed, d.reweighted) for u in records["u"]}


# --- construction and validation ---------------------------------------


def test_snapshot_basics():
    g = snapshot(3, [(2, 0, 0.5), (0, 1, 1.0)])
    assert len(g) == 2
    assert _triples(g) == [(0, 1, 1.0), (2, 0, 0.5)]  # sorted by (u, v)
    assert g.rows.dtype == g.cols.dtype == np.int64 and g.weights.dtype == np.float64
    assert snapshot(3, [(0, 1, 1.0), (2, 0, 0.5)]) == g
    assert g != snapshot(3, [(0, 1, 1.0), (2, 0, 0.25)])
    assert not GraphSnapshot(3) and len(GraphSnapshot(3)) == 0


def test_snapshot_rejects_bad_edges():
    with pytest.raises(ValueError, match=r"edge \(0,2\) outside node range \[0,2\)"):
        snapshot(2, [(0, 1, 1.0), (0, 2, 1.0)])
    with pytest.raises(ValueError, match="outside node range"):
        snapshot(2, [(-1, 0, 1.0)])
    with pytest.raises(ValueError, match=r"edge \(0,1\) has non-positive weight 0.0"):
        snapshot(2, [(0, 1, 0.0)])
    for w in (-1.0, -0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-positive weight"):
            snapshot(2, [(0, 1, w)])
    with pytest.raises(ValueError, match=r"duplicate edge \(0,1\)"):
        snapshot(2, [(1, 1, 1.0), (0, 1, 1.0), (0, 1, 2.0)])
    with pytest.raises(ValueError, match="one length"):
        GraphSnapshot(2, [0, 1], [1], [1.0])
    with pytest.raises(ValueError):
        GraphSnapshot(-1)


def test_snapshot_arrays_are_read_only_copies():
    rows = np.array([2, 0])
    g = GraphSnapshot(3, rows, [0, 1], [0.5, 1.0])
    for a in (g.rows, g.cols, g.weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    rows[0] = 1  # the caller's array stays writable and is not shared
    assert _triples(g) == [(0, 1, 1.0), (2, 0, 0.5)]
    d = edge_delta(g, snapshot(3, [(0, 1, 2.0), (1, 1, 1.0)]))
    for records in (d.added, d.removed, d.reweighted):
        with pytest.raises(ValueError, match="read-only"):
            records[:] = records


def test_self_loops_permitted():
    g = snapshot(2, [(1, 1, 3.0)])
    assert _triples(g) == [(1, 1, 3.0)]


def test_sequence_requires_shared_n():
    with pytest.raises(ValueError, match="expected"):
        SnapshotSequence([snapshot(2, []), snapshot(3, [])])
    with pytest.raises(ValueError):
        SnapshotSequence([])
    seq = SnapshotSequence([snapshot(2, []), snapshot(2, [(0, 1, 1.0)])])
    assert len(seq) == 2 and seq.n == 2


# --- dense adjacency ----------------------------------------------------


def test_dense_single_edge():
    a = dense_adjacency(snapshot(2, [(0, 1, 1.0)]))
    assert np.array_equal(a, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dense_empty():
    assert np.array_equal(dense_adjacency(snapshot(3, [])), np.zeros((3, 3)))


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
    g = snapshot(8, uniq)
    a = dense_adjacency(g)
    for u in range(8):
        want = sum(w for x, _, w in uniq if x == u)
        assert a[u].sum() == pytest.approx(want, abs=1e-12)
    assert np.count_nonzero(a) == len(g)


def test_dense_limit():
    with pytest.raises(ValueError, match="dense limit"):
        dense_adjacency(snapshot(DEFAULT_DENSE_LIMIT + 1, []))


# --- deltas -------------------------------------------------------------


def test_delta_of_identical_snapshots_has_no_entries():
    g = snapshot(3, [(0, 1, 1.0)])
    d = edge_delta(g, g)
    assert len(d.added) == len(d.removed) == len(d.reweighted) == 0


def test_delta_hand_example():
    prev = snapshot(4, [(0, 1, 1.0)])
    nxt = snapshot(4, [(0, 1, 2.0), (2, 3, 1.0)])
    d = edge_delta(prev, nxt)
    assert d.reweighted.tolist() == [(0, 1, 1.0, 2.0)]
    assert d.added.tolist() == [(2, 3, 1.0)]
    assert d.removed.tolist() == []
    assert _delta_rows(d) == {0, 2}


def test_delta_mismatched_n():
    with pytest.raises(ValueError, match="mismatch"):
        edge_delta(snapshot(2, []), snapshot(3, []))


def test_apply_delta_validates():
    g = snapshot(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="removed"):
        apply_delta(g, _delta(removed=[(0, 1, 2.0)]))
    with pytest.raises(ValueError, match="already present"):
        apply_delta(g, _delta(added=[(0, 1, 3.0)]))
    with pytest.raises(ValueError, match="reweighted"):
        apply_delta(g, _delta(reweighted=[(0, 1, 9.0, 1.0)]))


@st.composite
def snapshot_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=100))
    weights = st.sampled_from([0.5, 1.0, 2.0])  # small pool invites reweights
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    def edge_set():
        d = draw(st.dictionaries(pair, weights, max_size=60))
        return [(u, v, w) for (u, v), w in d.items()]
    return snapshot(n, edge_set()), snapshot(n, edge_set())


@settings(max_examples=80, deadline=None)
@given(snapshot_pairs())
def test_delta_apply_round_trip(pair):
    a, b = pair
    assert apply_delta(a, edge_delta(a, b)) == b


def test_delta_rows_exact():
    a = snapshot(5, [(0, 1, 1.0), (3, 2, 1.0), (4, 4, 1.0)])
    b = snapshot(5, [(0, 1, 1.0), (3, 2, 2.0)])
    d = edge_delta(a, b)
    assert _delta_rows(d) == {3, 4}


@st.composite
def edge_list_pairs(draw):
    """(n, edges of A, edges of B), each a list of (u, v, w) triples in no
    particular order. B keeps some of A's edges, reweights some, drops the
    rest, and adds its own; either may be empty."""
    n = draw(st.integers(min_value=1, max_value=12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    weights = st.sampled_from([0.5, 1.0, 2.0, 0.1, 1 / 3, 5e-324, 1e300])
    a = draw(st.dictionaries(pair, weights, max_size=3 * n))
    b = {key: draw(weights) for key in a if draw(st.booleans())}
    b.update(draw(st.dictionaries(pair, weights, max_size=2 * n)))
    return n, [(*key, w) for key, w in a.items()], [(*key, w) for key, w in b.items()]


@settings(max_examples=200, deadline=None)
@given(case=edge_list_pairs(), hide=st.sampled_from([0.1, 0.5, 0.9]),
       seed=st.integers(0, 2**32 - 1))
@example(case=(1, [], []), hide=0.5, seed=0)
@example(case=(1, [(0, 0, 1.0)], [(0, 0, 2.0)]), hide=0.5, seed=0)
@example(case=(2, [(1, 0, 1.0), (0, 1, 1.0)], []), hide=0.5, seed=0)
def test_array_path_matches_the_dict_reference(tmp_path_factory, case, hide, seed):
    n, edges_a, edges_b = case
    a, b = snapshot(n, edges_a), snapshot(n, edges_b)
    ref_a, ref_b = SnapshotRef(n, edges_a), SnapshotRef(n, edges_b)

    d = edge_delta(a, b)
    added, removed, reweighted = edge_delta_ref(ref_a, ref_b)
    assert set(d.added.tolist()) == added and len(d.added) == len(added)
    assert set(d.removed.tolist()) == removed and len(d.removed) == len(removed)
    assert set(d.reweighted.tolist()) == reweighted and len(d.reweighted) == len(reweighted)

    for g, ref in ((a, ref_a), (b, ref_b)):
        got, want = dense_adjacency(g), dense_adjacency_ref(ref)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    out = tmp_path_factory.mktemp("ref")
    save_snapshots(SnapshotSequence([a, b]), out / "new.txt")
    save_snapshots_ref([ref_a, ref_b], out / "ref.txt")
    assert (out / "new.txt").read_bytes() == (out / "ref.txt").read_bytes()

    if len(a) < 2:
        with pytest.raises(EvalError):
            static_lp_split(a, hide, Rng(seed))
        return
    train, hidden = static_lp_split(a, hide, Rng(seed))
    train_ref, hidden_ref = static_lp_split_ref(ref_a, hide, Rng(seed))
    assert _triples(train) == train_ref.edges()
    assert set(zip(hidden.rows.tolist(), hidden.cols.tolist())) == hidden_ref
    assert sorted(_triples(hidden) + _triples(train)) == _triples(a)


# --- file format --------------------------------------------------------


def test_load_minimal(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("1 2\n0 0 1 1.0\n")
    seq = load_snapshots(f)
    assert len(seq) == 1 and seq.n == 2
    assert seq[0] == snapshot(2, [(0, 1, 1.0)])


def test_save_empty_snapshot(tmp_path):
    f = tmp_path / "g.txt"
    save_snapshots(SnapshotSequence([snapshot(3, [])]), f)
    assert f.read_text() == "1 3\n"


def test_save_canonicalizes_order(tmp_path):
    f = tmp_path / "g.txt"
    g = snapshot(3, [(2, 0, 1.0), (0, 2, 1.0), (0, 1, 1.0)])
    save_snapshots(SnapshotSequence([g]), f)
    assert f.read_text() == "1 3\n0 0 1 1\n0 0 2 1\n0 2 0 1\n"


def test_int_lines():
    assert int_lines([0, 10, 3], [7, -2, 2**62]) == b"0 7\n10 -2\n3 %d\n" % 2**62
    assert int_lines([], []) == b""


def test_load_ignores_comments_and_blanks(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("# a comment\n\n2 3\n# more\n1 0 1 2.5\n\n0 2 1 1\n")
    seq = load_snapshots(f)
    assert _triples(seq[0]) == [(2, 1, 1.0)]
    assert _triples(seq[1]) == [(0, 1, 2.5)]


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
        snaps.append(snapshot(n, [(u, v, w) for (u, v), w in d.items()]))
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
    ("", "header", 1),
    ("# only comments\n", "header", 1),
    ("# one\n# two\n# three\n", "header", 3),
    ("# c\n\n1 2\n\n# d\n0 0 1 1.0\n0 0 1 2.0\n", "duplicate", 7),
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
    save_snapshots_ref([SnapshotRef(g.n, _triples(g)) for g in seq], d / "ref.txt")
    assert (d / "new.txt").read_bytes() == (d / "ref.txt").read_bytes()


def test_save_matches_per_edge_oracle_on_edge_weights(tmp_path):
    weights = [5e-324, 1e300, 1.7976931348623157e308, 3.0, 1e16, 0.1, 1 / 3]
    edges = [[(i, 11 - i, w) for i, w in enumerate(weights)], [(0, 0, 2.0)]]
    seq = SnapshotSequence([snapshot(12, e) for e in edges])
    save_snapshots(seq, tmp_path / "new.txt")
    save_snapshots_ref([SnapshotRef(12, e) for e in edges], tmp_path / "ref.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
    assert load_snapshots(tmp_path / "new.txt") == seq
