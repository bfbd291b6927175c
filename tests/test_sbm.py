"""Dynamic SBM generator: degenerate cases, distributional sanity, migration
bookkeeping, and determinism."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynembed.graphs import (GraphSnapshot, SnapshotSequence, dense_adjacency,
                             load_snapshots, save_snapshots)
from dynembed.rng import Rng
from dynembed.sbm import (DynamicSbmSeries, SbmParams, diminish_series,
                          generate_sbm_snapshot, load_labels, load_migrations,
                          save_labels, save_migrations)
from oracles import (diminish_series_ref, save_labels_ref, save_migrations_ref,
                     sbm_snapshot_ref)


def _params(**kw):
    base = dict(node_num=20, community_num=2, length=3, diminish_community=0,
                node_change_num=1, seed=0)
    base.update(kw)
    return SbmParams(**base)


# --- parameter validation -----------------------------------------------


def test_params_reject_single_community():
    with pytest.raises(ValueError, match="community_num"):
        _params(community_num=1)


def test_params_reject_zero_migration():
    with pytest.raises(ValueError, match="migrations"):
        _params(node_change_num=0)


def test_params_reject_exhausting_migration():
    # community 0 starts with 10 members; 5 per step over 2 steps drains it
    with pytest.raises(ValueError, match="exhausted|migrations"):
        _params(node_change_num=5)


def test_params_reject_bad_probabilities():
    with pytest.raises(ValueError, match="probabilities"):
        _params(p_in=0.01, p_out=0.1)
    with pytest.raises(ValueError, match="probabilities"):
        _params(p_in=1.2)
    with pytest.raises(ValueError, match="probabilities"):
        _params(p_in=0.1, p_out=0.1)  # strict p_out < p_in


def test_params_reject_bad_diminish_index():
    with pytest.raises(ValueError, match="diminish"):
        _params(diminish_community=2)


def test_community_sizes_remainder_to_last():
    assert _params(node_num=10, community_num=3, node_change_num=1,
                   length=2).community_sizes() == [3, 3, 4]
    assert _params(node_num=1000, community_num=2, node_change_num=10,
                   length=4).community_sizes() == [500, 500]


def test_initial_labels_contiguous():
    labels = _params(node_num=10, community_num=3, node_change_num=1,
                     length=2).initial_labels()
    assert labels.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]


# --- single-snapshot sampling -------------------------------------------


def test_degenerate_probabilities_give_cliques():
    labels = [0, 0, 1, 1]
    g = generate_sbm_snapshot(labels, 1.0, 0.0, Rng(0))
    assert list(zip(g.rows.tolist(), g.cols.tolist())) == [(0, 1), (1, 0), (2, 3), (3, 2)]
    assert g.weights.tolist() == [1.0] * 4


def test_zero_probabilities_give_empty_graph():
    g = generate_sbm_snapshot([0, 0, 1, 1], 0.0, 0.0, Rng(0))
    assert len(g) == 0


def test_snapshot_probability_validation():
    with pytest.raises(ValueError):
        generate_sbm_snapshot([0, 1], 1.5, 0.0, Rng(0))


_probability = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0))


@settings(max_examples=100, deadline=None)
@given(labels=st.integers(1, 4).flatmap(
           lambda k: st.lists(st.integers(0, k - 1), min_size=1, max_size=40)),
       p_in=_probability, p_out=_probability, seed=st.integers(0, 2**64 - 1))
def test_snapshot_matches_the_dense_reference(labels, p_in, p_out, seed):
    rng, ref_rng = Rng(seed), Rng(seed)
    got = generate_sbm_snapshot(labels, p_in, p_out, rng)
    want = sbm_snapshot_ref(labels, p_in, p_out, ref_rng)
    assert got == want
    assert got.weights.tobytes() == want.weights.tobytes()
    assert rng.raw64(1) == ref_rng.raw64(1)  # the same draw count


def test_within_block_count_within_4_sigma():
    labels = np.repeat(np.arange(2, dtype=np.int64), 100)
    trials = 2 * 100 * 99  # ordered same-community pairs, no self-loops
    mean = trials * 0.1
    sigma = math.sqrt(trials * 0.1 * 0.9)
    for seed in range(20):
        g = generate_sbm_snapshot(labels, 0.1, 0.01, Rng(seed))
        a = dense_adjacency(g)
        within = int(a[:100, :100].sum() + a[100:, 100:].sum())
        assert abs(within - mean) < 4 * sigma, f"seed {seed}: {within}"


def test_block_frequencies_chi_square_sanity():
    labels = np.repeat(np.arange(2, dtype=np.int64), 250)
    g = generate_sbm_snapshot(labels, 0.1, 0.01, Rng(11))
    a = dense_adjacency(g)
    w_trials = 2 * 250 * 249
    c_trials = 2 * 250 * 250
    within = a[:250, :250].sum() + a[250:, 250:].sum()
    cross = a[:250, 250:].sum() + a[250:, :250].sum()
    z_in = (within - w_trials * 0.1) / math.sqrt(w_trials * 0.1 * 0.9)
    z_out = (cross - c_trials * 0.01) / math.sqrt(c_trials * 0.01 * 0.99)
    assert z_in**2 + z_out**2 < 16.0  # ~chi-square(2); far tail


# --- diminishing series -------------------------------------------------


def test_series_shape_and_size_sequence():
    params = SbmParams(node_num=1000, community_num=2, length=4,
                       diminish_community=0, node_change_num=10, seed=1)
    series = diminish_series(params)
    assert len(series.sequence) == 4
    sizes = [int(np.sum(lab == 0)) for lab in series.labels]
    assert sizes == [500, 490, 480, 470]
    assert [len(m) for m in series.migrations] == [0, 10, 10, 10]


def test_labels_differ_exactly_on_migrated():
    for seed in range(4):
        series = diminish_series(_params(node_num=30, length=4,
                                         node_change_num=2, seed=seed))
        for t in range(1, 4):
            diff = set(np.flatnonzero(series.labels[t - 1] != series.labels[t]).tolist())
            moved = {node for node, _, _ in series.migrations[t]}
            assert diff == moved
            assert len(moved) == 2


def test_migration_records_match_labels():
    series = diminish_series(_params(node_num=30, length=3, node_change_num=2, seed=5))
    for t in (1, 2):
        for node, old, new in series.migrations[t]:
            assert series.labels[t - 1][node] == old == 0
            assert series.labels[t][node] == new != 0


@st.composite
def _valid_params(draw):
    community_num = draw(st.integers(min_value=2, max_value=4))
    node_num = draw(st.integers(min_value=community_num * 5, max_value=60))
    length = draw(st.integers(min_value=2, max_value=5))
    diminish = draw(st.integers(min_value=0, max_value=community_num - 1))
    base = node_num // community_num
    # remainder lands in the last community
    init_size = base + (node_num % community_num if diminish == community_num - 1 else 0)
    change = draw(st.integers(min_value=1, max_value=(init_size - 1) // (length - 1)))
    return SbmParams(node_num=node_num, community_num=community_num, length=length,
                     diminish_community=diminish, node_change_num=change,
                     p_in=0.3, p_out=0.05,
                     seed=draw(st.integers(min_value=0, max_value=2**32 - 1)))


@settings(max_examples=30, deadline=None)
@given(_valid_params())
def test_bookkeeping_invariants_property(params):
    series = diminish_series(params)
    dim = params.diminish_community
    for t in range(1, params.length):
        prev_lab, cur_lab = series.labels[t - 1], series.labels[t]
        records = series.migrations[t]
        assert len(records) == params.node_change_num
        moved = {node for node, _, _ in records}
        assert set(np.flatnonzero(prev_lab != cur_lab).tolist()) == moved
        for node, old, new in records:
            assert old == dim and new != dim
            assert prev_lab[node] == old and cur_lab[node] == new
    sizes = [int(np.sum(lab == dim)) for lab in series.labels]
    assert sizes == [sizes[0] - t * params.node_change_num for t in range(params.length)]


@st.composite
def _stepped_params(draw):
    """_valid_params with drawn probabilities and up to 6 communities."""
    community_num = draw(st.integers(min_value=2, max_value=6))
    node_num = draw(st.integers(min_value=community_num * 5, max_value=90))
    length = draw(st.integers(min_value=2, max_value=5))
    diminish = draw(st.integers(min_value=0, max_value=community_num - 1))
    init_size = SbmParams(node_num=node_num, community_num=community_num, length=2,
                          diminish_community=0, node_change_num=1).community_sizes()[diminish]
    change = draw(st.integers(min_value=1, max_value=(init_size - 1) // (length - 1)))
    p_out = draw(st.sampled_from([0.0, 0.01, 0.2]))
    p_in = draw(st.sampled_from([0.3, 0.9, 1.0]))
    return SbmParams(node_num=node_num, community_num=community_num, length=length,
                     diminish_community=diminish, node_change_num=change,
                     p_in=p_in, p_out=p_out,
                     seed=draw(st.integers(min_value=0, max_value=2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(_stepped_params())
def test_series_matches_the_dense_reference(params):
    got, want = diminish_series(params), diminish_series_ref(params)
    assert len(got.sequence) == len(want.sequence)
    for g, w in zip(got.sequence, want.sequence):
        assert g == w
    assert all(np.array_equal(a, b) for a, b in zip(got.labels, want.labels))
    assert got.migrations == want.migrations


@pytest.mark.parametrize("n, change", [(300, 10), (200, 1)])
def test_series_matches_the_dense_reference_at_size(n, change):
    params = SbmParams(node_num=n, community_num=3, length=6, diminish_community=1,
                       node_change_num=change, seed=5)
    got, want = diminish_series(params), diminish_series_ref(params)
    assert all(g == w for g, w in zip(got.sequence, want.sequence))
    assert got.migrations == want.migrations


def test_non_migrated_edges_carry_over():
    series = diminish_series(_params(node_num=40, length=4, node_change_num=3, seed=2))
    for t in range(1, 4):
        prev = dense_adjacency(series.sequence[t - 1])
        cur = dense_adjacency(series.sequence[t])
        moved = {node for node, _, _ in series.migrations[t]}
        keep = np.array([i for i in range(40) if i not in moved])
        assert np.array_equal(prev[np.ix_(keep, keep)], cur[np.ix_(keep, keep)])


def test_migrated_rows_resampled_under_new_labels():
    series = diminish_series(_params(node_num=40, length=2, node_change_num=3, seed=9))
    for g in series.sequence:
        a = dense_adjacency(g)
        assert np.all(np.diag(a) == 0.0)


def test_series_deterministic():
    p = _params(node_num=25, length=3, node_change_num=1, seed=13)
    a, b = diminish_series(p), diminish_series(p)
    assert a.sequence == b.sequence
    assert all(np.array_equal(x, y) for x, y in zip(a.labels, b.labels))
    assert a.migrations == b.migrations


def test_series_seeds_differ():
    a = diminish_series(_params(seed=1))
    b = diminish_series(_params(seed=2))
    assert a.sequence != b.sequence


# --- label/migration files ----------------------------------------------


def test_labels_round_trip(tmp_path):
    series = diminish_series(_params(node_num=15, length=3, node_change_num=1, seed=4))
    path = tmp_path / "labels.txt"
    save_labels(series, path)
    loaded = load_labels(path)
    assert len(loaded) == 3
    assert all(np.array_equal(x, y) for x, y in zip(loaded, series.labels))


@st.composite
def label_series(draw):
    """Labels and migration records of any size, unsorted within a step."""
    n = draw(st.integers(1, 40))
    length = draw(st.integers(1, 4))
    community = st.integers(0, 10**7)
    labels = [np.array(draw(st.lists(community, min_size=n, max_size=n)), dtype=np.int64)
              for _ in range(length)]
    migrations = [[(node, draw(community), draw(community))
                   for node in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=5))]
                  for _ in range(length)]
    seq = SnapshotSequence([GraphSnapshot(n)] * length)
    return DynamicSbmSeries(sequence=seq, labels=labels, migrations=migrations)


@settings(max_examples=60, deadline=None)
@given(label_series())
def test_label_and_migration_writers_match_per_line_oracles(tmp_path_factory, series):
    d = tmp_path_factory.mktemp("labels")
    for write, ref in ((save_labels, save_labels_ref), (save_migrations, save_migrations_ref)):
        write(series, d / "new.txt")
        ref(series, d / "ref.txt")
        assert (d / "new.txt").read_bytes() == (d / "ref.txt").read_bytes()


def test_generated_label_and_migration_files_match_per_line_oracles(tmp_path):
    series = diminish_series(_params(node_num=120, community_num=3, length=6,
                                     node_change_num=4, seed=9))
    for write, ref in ((save_labels, save_labels_ref), (save_migrations, save_migrations_ref)):
        write(series, tmp_path / "new.txt")
        ref(series, tmp_path / "ref.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_labels_loader_rejects_gaps(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0 0 0\n0 2 1\n")  # node 1 missing at t=0
    with pytest.raises(ValueError, match="missing labels"):
        load_labels(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_labels(path)


@pytest.mark.parametrize("text,line,match", [
    # node -1 would index from the end and overwrite node 1
    pytest.param("0 0 0\n0 1 1\n0 -1 0\n", 3, "negative", id="negative-node"),
    pytest.param("-1 0 0\n0 0 0\n", 1, "negative", id="negative-t"),
    pytest.param("0 0 0\n0 1 -1\n", 2, "negative", id="negative-community"),
    # a second row for (0, 1) would silently relabel node 1
    pytest.param("0 0 0\n0 1 1\n0 1 0\n", 3, "duplicate", id="duplicate"),
])
def test_labels_loader_rejects_rows_that_overwrite(tmp_path, text, line, match):
    path = tmp_path / "labels.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"line {line}: .*{match}"):
        load_labels(path)


@pytest.mark.parametrize("text,line", [
    pytest.param("0 0 0\n0 1 x\n", 2, id="non-integer"),
    pytest.param("0 0 0\n0 1\n", 2, id="too-few-fields"),
    pytest.param("0 0 0 0\n", 1, id="too-many-fields"),
])
def test_labels_loader_names_the_malformed_line(tmp_path, text, line):
    path = tmp_path / "labels.txt"
    path.write_text(text)
    want = f"{re.escape(str(path))}: line {line}: expected `t node community`"
    with pytest.raises(ValueError, match=want):
        load_labels(path)


def test_migrations_round_trip(tmp_path):
    series = diminish_series(_params(node_num=15, length=3, node_change_num=1, seed=4))
    path = tmp_path / "migrations.txt"
    save_migrations(series, path)
    loaded = load_migrations(path, 3)
    assert loaded == [sorted(step) for step in series.migrations]


def test_migrations_loader_rejects_out_of_range(tmp_path):
    path = tmp_path / "migrations.txt"
    path.write_text("1 0 0 1\n5 0 0 1\n")
    with pytest.raises(ValueError, match=r"line 2: migration at t=5 outside \[0,3\)"):
        load_migrations(path, 3)


@pytest.mark.parametrize("text,line", [
    pytest.param("1 0 0 1\n1 1\n", 2, id="too-few-fields"),
    pytest.param("1 0 0 1 1\n", 1, id="too-many-fields"),
    pytest.param("1 0 0 1\n2 1 0 one\n", 2, id="non-integer"),
])
def test_migrations_loader_names_the_malformed_line(tmp_path, text, line):
    path = tmp_path / "migrations.txt"
    path.write_text(text)
    want = f"{re.escape(str(path))}: line {line}: expected `t node old_community"
    with pytest.raises(ValueError, match=want):
        load_migrations(path, 3)


@pytest.mark.parametrize("text,line", [
    # the same record twice would count the migrant twice
    pytest.param("1 0 0 1\n1 0 0 1\n", 2, id="same-record"),
    pytest.param("1 3 0 1\n2 3 1 0\n1 3 1 0\n", 3, id="same-node-and-step"),
])
def test_migrations_loader_rejects_repeated_records(tmp_path, text, line):
    path = tmp_path / "migrations.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"line {line}: .*duplicate migration of node"):
        load_migrations(path, 3)


# --- every loader reads lines the same way ------------------------------


def _messy(plain: bytes) -> bytes:
    """plain with tabs between fields, CRLF line ends, and comment and blank
    lines before, between and after its records."""
    lines = [b"# leading comment", b""]
    for line in plain.splitlines():
        lines += [b"\t".join(line.split()), b"  # between records", b" \t "]
    return b"\r\n".join(lines) + b"\r\n"


_LOADERS = {
    "snapshots": (lambda series, path: save_snapshots(series.sequence, path),
                  lambda path: load_snapshots(path).snapshots),
    "labels": (save_labels, lambda path: [a.tolist() for a in load_labels(path)]),
    "migrations": (save_migrations, lambda path: load_migrations(path, 4)),
}


@pytest.mark.parametrize("kind", _LOADERS)
def test_loaders_read_tabs_crlf_and_comments_as_the_plain_file(tmp_path, kind):
    save, load = _LOADERS[kind]
    series = diminish_series(_params(node_num=24, community_num=3, length=4,
                                     node_change_num=2, seed=3))
    plain, messy = tmp_path / "plain.txt", tmp_path / "messy.txt"
    save(series, plain)
    messy.write_bytes(_messy(plain.read_bytes()))
    assert load(messy) == load(plain)
