"""Pipeline data checks, task reports and output-directory hygiene."""

import json
import re

import pytest

from dynembed import pipeline
from dynembed.cli import main
from dynembed.config import from_dict
from dynembed.evaluation import migration_proximity_stat
from dynembed.pipeline import PipelineError, config_digest, embed_series, prepare_data, \
    run_experiment
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


def _no_embed(monkeypatch):
    monkeypatch.setattr(pipeline, "embed_series", lambda *args: pytest.fail("the run embedded"))


def _embeddings(outdir):
    return [path.name for path in outdir.iterdir() if path.name.startswith("emb_t")]


@pytest.mark.parametrize("task, labels, message", [
    ("classification", None,
     "classification needs labels (generate SBM data or set data.labels)"),
    ("migration_stat", None, "migration_stat needs labels and migrations"),
    ("projection", None, "projection needs labels (generate SBM data or set data.labels)"),
    ("classification", "0 0 0\n0 1 1\n0 2 0\n", "labels cover 1 snapshots, sequence has 2"),
    # _file_config's d = 1: PCA has no second direction to project onto
    ("projection", LABELS, "projection needs d >= 2, got d=1"),
])
def test_run_without_the_data_a_task_reads_fails(tmp_path, monkeypatch, capsys, task, labels,
                                                 message):
    _no_embed(monkeypatch)
    cfg = _file_config(tmp_path, labels=labels)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**cfg.resolved(), "outdir": str(tmp_path / "out"),
                                  "tasks": {task: {}}}))
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: PipelineError: {message}\n"
    assert not _embeddings(tmp_path / "out")


# case -> (the files left out of _file_config's, the task that cannot run,
# its error); every case's d is _file_config's 1
MISSING = {
    "no_labels": ({"labels": None}, "classification",
                  "classification needs labels (generate SBM data or set data.labels)"),
    "no_migrations": ({"migrations": None}, "migration_stat",
                      "migration_stat needs labels and migrations"),
    "d_1": ({}, "projection", "projection needs d >= 2, got d=1"),
}


@pytest.mark.parametrize("stage", ["embed", "evaluate", "project", "run"])
@pytest.mark.parametrize("case", sorted(MISSING))
def test_a_task_that_cannot_run_fails_before_the_embed_at_every_stage(tmp_path, monkeypatch,
                                                                      case, stage):
    files, task, message = MISSING[case]
    _no_embed(monkeypatch)
    cfg = from_dict({**_file_config(tmp_path, **files).resolved(),
                     "outdir": str(tmp_path / "out"), "tasks": {task: {}}})
    with pytest.raises(PipelineError, match=f"^{re.escape(message)}$"):
        run_experiment(cfg, stage=stage)
    assert not _embeddings(tmp_path / "out")


# --- task reports -------------------------------------------------------------


def _sbm_tasks(outdir, method, tasks, length=5):
    return from_dict({
        "seed": 7, "outdir": str(outdir),
        "data": {"sbm": {"node_num": 30, "community_num": 2, "length": length,
                         "node_change_num": 2}},
        "method": {"name": method, "d": 3, "enc_units": [8], "dec_units": [8], "n_iter": 1},
        "tasks": tasks,
    })


REPORT_TASKS = ("reconstruction", "static_lp", "temporal_lp", "classification",
                "migration_stat")


@pytest.mark.parametrize("method", ["rerunsvd", "dyngem"])
def test_every_report_names_its_run(tmp_path, method):
    cfg = _sbm_tasks(tmp_path, method, {name: {} for name in REPORT_TASKS})
    run_experiment(cfg)
    reports = sorted(tmp_path.glob("report_*.json"))
    assert [p.name for p in reports] == sorted(f"report_{n}.json" for n in REPORT_TASKS)
    for path in reports:
        report = json.loads(path.read_text())
        assert (report["method"], report["seed"], report["config_digest"]) == \
            (method, 7, config_digest(cfg)), path.name


def test_migration_stat_arrival_reads_the_migrants_of_its_own_step(tmp_path):
    cfg = _sbm_tasks(tmp_path, "rerunsvd", {"migration_stat": {"t": 2}})
    report = run_experiment(cfg)["reports"]["migration_stat"]
    assert report.mode == "arrival"
    seq, labels, migrations = prepare_data(cfg)
    series, _ = embed_series(cfg, seq)
    assert migrations[2]
    assert report.stat == migration_proximity_stat(series, labels[2], migrations[2], 2)


@pytest.mark.parametrize("anticipate, t, message", [
    (False, 0, r"migration_stat: t=0 resolves to 0, outside \[1, 4\]"),
    (True, 4, r"migration_stat: t=4 resolves to 4, outside \[0, 3\]"),
])
def test_migration_stat_range(tmp_path, anticipate, t, message):
    cfg = _sbm_tasks(tmp_path, "rerunsvd",
                     {"migration_stat": {"t": t, "anticipate": anticipate}})
    with pytest.raises(PipelineError, match=message):
        run_experiment(cfg)


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
