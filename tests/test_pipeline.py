"""Pipeline data checks and output-directory hygiene."""

import json

import pytest

from dynembed.cli import main
from dynembed.config import from_dict
from dynembed.pipeline import PipelineError, prepare_data, run_experiment
from dynembed.series import load_embedding_series

# 2 snapshots over 3 nodes; node 2 moves from community 0 to 1 at t=1
SNAPSHOTS = "2 3\n0 0 1 1\n0 1 2 1\n1 0 1 1\n1 2 0 1\n"
LABELS = "0 0 0\n0 1 1\n0 2 0\n1 0 0\n1 1 1\n1 2 1\n"
MIGRATIONS = "1 2 0 1\n"


def _file_config(tmp_path, labels=LABELS, migrations=MIGRATIONS):
    """Config reading the given file contents; None leaves a file out."""
    files = {"snapshots": SNAPSHOTS, "labels": labels, "migrations": migrations}
    data = {}
    for key, text in files.items():
        if text is None:
            continue
        path = tmp_path / f"{key}.txt"
        path.write_text(text)
        data[key] = str(path)
    return from_dict({"data": data, "method": {"name": "optsvd", "d": 1}})


def _sbm_run(outdir, length):
    return from_dict({
        "seed": 1,
        "outdir": str(outdir),
        "data": {"sbm": {"node_num": 30, "community_num": 2, "length": length,
                         "node_change_num": 1}},
        "method": {"name": "rerunsvd", "d": 4},
        "tasks": {"classification": {}, "projection": {}},
    })


# --- labels and migrations against the sequence ----------------------------


def test_consistent_files_are_accepted(tmp_path):
    seq, labels, migrations = prepare_data(_file_config(tmp_path))
    assert seq.n == 3 and len(labels) == 2
    assert migrations == [[], [(2, 0, 1)]]


def test_labels_node_count_must_match_sequence(tmp_path):
    short = "0 0 0\n0 1 1\n1 0 0\n1 1 1\n"  # node 2 never labelled
    with pytest.raises(PipelineError, match="labels cover 2 nodes, sequence has 3"):
        prepare_data(_file_config(tmp_path, labels=short, migrations=""))


@pytest.mark.parametrize("record, message", [
    ("1 3 0 1\n", "node 3 outside"),
    ("1 -1 0 1\n", "node -1 outside"),
    ("0 2 0 1\n", "at t=0"),
    ("1 2 1 1\n", "node 2 has community 0 at t=0"),
    ("1 2 0 0\n", "node 2 has community 1 at t=1"),
])
def test_migration_records_checked(tmp_path, record, message):
    with pytest.raises(PipelineError, match=message):
        prepare_data(_file_config(tmp_path, migrations=record))


def test_migration_range_checked_without_labels(tmp_path):
    cfg = _file_config(tmp_path, labels=None, migrations="1 5 0 1\n")
    with pytest.raises(PipelineError, match="node 5 outside"):
        prepare_data(cfg)


def test_repeated_migration_record_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="line 2: duplicate migration of node 2 at t=1"):
        prepare_data(_file_config(tmp_path, migrations=MIGRATIONS * 2))


# --- reused output directory ------------------------------------------------


def test_rerun_into_same_outdir_leaves_no_stale_embeddings(tmp_path):
    out = tmp_path / "out"
    run_experiment(_sbm_run(out, 6))
    assert (out / "emb_t5.src").exists()
    run_experiment(_sbm_run(out, 3))
    assert list(load_embedding_series(out, "emb").times()) == [0, 1, 2]
    manifest = json.loads((out / "manifest.json").read_text())
    owned = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert owned == set(manifest["files"])


def test_rerun_with_other_method_drops_its_outputs(tmp_path):
    out = tmp_path / "out"
    run_experiment(_sbm_run(out, 3))
    assert (out / "restart_log.txt").exists()
    cfg = from_dict({
        "seed": 1, "outdir": str(out),
        "data": {"sbm": {"node_num": 30, "community_num": 2, "length": 3,
                         "node_change_num": 1}},
        "method": {"name": "optsvd", "d": 4},
    })
    run_experiment(cfg, stage="embed")
    names = {p.name for p in out.iterdir()}
    assert not names & {"restart_log.txt", "manifest.json", "report_classification.json",
                        "projection_t2.txt"}
    assert (out / "emb_t2.src").exists()


def test_files_the_run_does_not_own_are_kept(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("keep me\n")
    (out / "emb_final.csv").write_text("keep me too\n")
    run_experiment(_sbm_run(out, 3))
    assert (out / "notes.txt").read_text() == "keep me\n"
    assert (out / "emb_final.csv").exists()


def test_file_data_run_drops_generated_data_of_an_earlier_run(tmp_path):
    out = tmp_path / "out"
    run_experiment(_sbm_run(out, 3))
    assert (out / "labels.txt").exists()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    cfg = _file_config(inputs)
    run_experiment(from_dict({**cfg.resolved(), "outdir": str(out)}))
    names = {p.name for p in out.iterdir()}
    assert not names & {"snapshots.txt", "labels.txt", "migrations.txt"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert names - {"manifest.json"} == set(manifest["files"])


def test_data_files_the_run_reads_are_kept(tmp_path):
    out = tmp_path / "out"
    run_experiment(_sbm_run(out, 3))
    before = {name: (out / name).read_bytes() for name in ("snapshots.txt", "labels.txt")}
    # read two of the generated files back; the third is no input, so it goes
    cfg = from_dict({"outdir": str(out), "method": {"name": "optsvd", "d": 2},
                     "data": {"snapshots": str(out / "snapshots.txt"),
                              "labels": str(out / "labels.txt")},
                     "tasks": {"classification": {}}})
    run_experiment(cfg)
    assert {name: (out / name).read_bytes() for name in before} == before
    assert not (out / "migrations.txt").exists()


def test_a_generated_dataset_outlives_runs_in_its_directory(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--nodes", "30", "--communities", "2", "--length", "3",
                 "--migrate", "1", "--outdir", str(data)]) == 0
    before = {p.name: p.read_bytes() for p in data.iterdir()}
    # the run reads only snapshots.txt; no manifest says dynembed made the rest
    cfg = from_dict({"outdir": str(data), "method": {"name": "optsvd", "d": 2},
                     "data": {"snapshots": str(data / "snapshots.txt")},
                     "tasks": {"reconstruction": {}}})
    run_experiment(cfg)
    run_experiment(cfg)
    assert {name: (data / name).read_bytes() for name in before} == before


def test_a_generated_data_file_changed_since_is_kept(tmp_path):
    out = tmp_path / "out"
    run_experiment(_sbm_run(out, 3))
    (out / "labels.txt").write_text(LABELS)  # no longer what the manifest lists
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    run_experiment(from_dict({**_file_config(inputs).resolved(), "outdir": str(out)}))
    assert (out / "labels.txt").read_text() == LABELS
    assert not (out / "snapshots.txt").exists() and not (out / "migrations.txt").exists()
