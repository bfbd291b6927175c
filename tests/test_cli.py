"""CLI behavior: subcommands, exit codes, artifact layout, determinism.

Everything runs in-process through main(argv); exit code 2 is a config
problem, 1 a runtime failure, 0 success.
"""

import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dynembed
from dynembed.cli import main
from dynembed.graphs import load_snapshots
from dynembed.sbm import load_labels, load_migrations

TINY_SNAPSHOTS = "1 2\n0 0 1 1.0\n"


def _write_config(path, **kw):
    path.write_text(json.dumps(kw))
    return str(path)


def _sbm_config(tmp_path, outdir, **method_fields):
    method = {"name": "optsvd", "d": 8}
    method.update(method_fields)
    return _write_config(
        tmp_path / "config.json",
        seed=1,
        outdir=str(outdir),
        data={"sbm": {"node_num": 40, "community_num": 2, "length": 4,
                      "node_change_num": 2}},
        method=method,
        tasks={"reconstruction": {"k_grid": [1, 10]}},
    )


# --- generate ----------------------------------------------------------------


def _quick_start():
    """README's Quick start: its shell commands, each split into argv, and
    its experiment.json."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    shell = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    config = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    return [shlex.split(line) for line in shell.splitlines() if line.strip()], config


def test_readme_quick_start_generates_the_data_its_run_generates(tmp_path, monkeypatch):
    # generate and the run's data.sbm must agree on every default they share
    commands, config = _quick_start()
    assert [argv[:2] for argv in commands] == [["dynembed", "generate"], ["dynembed", "run"]]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "experiment.json").write_text(json.dumps(config))
    for argv in commands:
        assert main(argv[1:]) == 0
    for name in ("snapshots.txt", "labels.txt", "migrations.txt"):
        assert (tmp_path / "data" / name).read_bytes() == (tmp_path / "results" / name).read_bytes()


def test_generate_writes_loadable_files(tmp_path, capsys):
    code = main(["generate", "--nodes", "40", "--communities", "2",
                 "--length", "4", "--migrate", "2", "--seed", "7",
                 "--outdir", str(tmp_path)])
    assert code == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert len(out_lines) == 3
    seq = load_snapshots(tmp_path / "snapshots.txt")
    assert len(seq) == 4 and seq.n == 40
    labels = load_labels(tmp_path / "labels.txt")
    assert len(labels) == 4 and labels[0].shape == (40,)
    migrations = load_migrations(tmp_path / "migrations.txt", 4)
    assert [len(m) for m in migrations] == [0, 2, 2, 2]


def test_generate_is_deterministic(tmp_path):
    args = ["generate", "--nodes", "30", "--communities", "3", "--length", "3",
            "--migrate", "1", "--seed", "5"]
    assert main(args + ["--outdir", str(tmp_path / "a")]) == 0
    assert main(args + ["--outdir", str(tmp_path / "b")]) == 0
    for name in ("snapshots.txt", "labels.txt", "migrations.txt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_generate_seed_changes_output(tmp_path):
    base = ["generate", "--nodes", "30", "--communities", "2", "--length", "3",
            "--migrate", "1"]
    main(base + ["--seed", "1", "--outdir", str(tmp_path / "a")])
    main(base + ["--seed", "2", "--outdir", str(tmp_path / "b")])
    assert (tmp_path / "a" / "snapshots.txt").read_bytes() != \
        (tmp_path / "b" / "snapshots.txt").read_bytes()


def test_generate_missing_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--communities", "2", "--length", "3", "--migrate", "1"])
    assert exc.value.code == 2


def test_generate_invalid_params(tmp_path, capsys):
    code = main(["generate", "--nodes", "30", "--communities", "2",
                 "--length", "3", "--migrate", "0", "--outdir", str(tmp_path)])
    assert code == 2
    assert "invalid SBM parameters" in capsys.readouterr().err


# --- pipeline stages ------------------------------------------------------------


def test_run_on_snapshot_file(tmp_path, capsys):
    snaps = tmp_path / "snapshots.txt"
    snaps.write_text(TINY_SNAPSHOTS)
    outdir = tmp_path / "out"
    config = _write_config(
        tmp_path / "config.json",
        outdir=str(outdir),
        data={"snapshots": str(snaps)},
        method={"name": "optsvd", "d": 1},
        tasks={"reconstruction": {"k_grid": [1]}},
    )
    assert main(["run", "--config", config]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(outdir / "manifest.json") == printed[-1]
    report = json.loads((outdir / "report_reconstruction.json").read_text())
    assert report["task"] == "reconstruction"
    assert report["map"] == 1.0
    assert report["precision_at_k"] == [1.0]
    assert (outdir / "emb_t0.src").exists() and (outdir / "emb_t0.tgt").exists()


def test_stage_file_sets(tmp_path):
    snaps = tmp_path / "snapshots.txt"
    snaps.write_text("2 3\n0 0 1 1\n0 1 0 1\n1 0 1 1\n1 1 2 1\n")
    base = dict(
        data={"snapshots": str(snaps)},
        method={"name": "optsvd", "d": 1},
        tasks={"reconstruction": {"k_grid": [1]}},
    )
    for stage, want_report, want_manifest in (
        ("embed", False, False),
        ("evaluate", True, False),
        ("run", True, True),
    ):
        outdir = tmp_path / stage
        config = _write_config(tmp_path / f"{stage}.json", outdir=str(outdir), **base)
        assert main([stage, "--config", config]) == 0
        assert (outdir / "emb_t0.src").exists()
        assert (outdir / "report_reconstruction.json").exists() == want_report
        assert (outdir / "manifest.json").exists() == want_manifest


def test_d2v_run_layout(tmp_path):
    outdir = tmp_path / "out"
    config = _write_config(
        tmp_path / "config.json",
        seed=1,
        outdir=str(outdir),
        data={"sbm": {"node_num": 40, "community_num": 2, "length": 4,
                      "node_change_num": 2}},
        method={"name": "d2v_ae", "d": 8, "lookback": 2, "n_iter": 2,
                "enc_units": [16], "dec_units": [16], "n_batch": 20},
        tasks={"projection": {}},
    )
    assert main(["run", "--config", config]) == 0
    # lookback 2 means no embedding exists for t=0
    assert not (outdir / "emb_t0.src").exists()
    for t in (1, 2, 3):
        assert (outdir / f"emb_t{t}.src").exists()
        assert (outdir / f"emb_t{t}.tgt").exists()
    assert (outdir / "projection_t3.txt").exists()
    assert (outdir / "model.txt").exists()
    first = (outdir / "emb_t1.src").read_text().splitlines()[0]
    assert first == "40 8"


def test_restart_log_written_for_svd_variants(tmp_path):
    outdir = tmp_path / "out"
    config = _sbm_config(tmp_path, outdir, name="rerunsvd", theta=0.1)
    assert main(["run", "--config", config]) == 0
    lines = (outdir / "restart_log.txt").read_text().splitlines()
    assert len(lines) == 4
    assert all(len(line.split()) == 4 for line in lines)


# --- failures -------------------------------------------------------------------


def test_bad_config_field_exits_2(tmp_path, capsys):
    outdir = tmp_path / "out"
    config = _write_config(
        tmp_path / "config.json", outdir=str(outdir),
        data={"sbm": {"node_num": 20, "community_num": 2, "length": 3,
                      "node_change_num": 1}},
        method={"name": "optsvd", "d": 8, "momentum": 0.9},
    )
    assert main(["run", "--config", config]) == 2
    assert "error: config field 'method.momentum'" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{broken")
    assert main(["run", "--config", str(config)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_runtime_failure_exits_1(tmp_path, capsys):
    config = _write_config(
        tmp_path / "config.json", outdir=str(tmp_path / "out"),
        data={"snapshots": str(tmp_path / "missing.txt")},
        method={"name": "optsvd", "d": 1},
    )
    assert main(["run", "--config", config]) == 1
    assert "error:" in capsys.readouterr().err


def _weighted_snapshot_file(path, weight):
    """Three snapshots on 30 nodes, every edge of the given weight."""
    rng = random.Random(0)
    lines = ["3 30"]
    for t in range(3):
        lines += [f"{t} {u} {v} {weight!r}" for u in range(30) for v in range(30)
                  if rng.random() < 0.2]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("weight, code", [(1e170, 1), (1e-170, 0)])
def test_overflowing_svd_loss_exits_1(tmp_path, capsys, weight, code):
    outdir = tmp_path / "out"
    config = _write_config(
        tmp_path / "config.json", outdir=str(outdir),
        data={"snapshots": _weighted_snapshot_file(tmp_path / "snapshots.txt", weight)},
        method={"name": "rerunsvd", "d": 2, "theta": 1.0},
    )
    assert main(["run", "--config", config]) == code
    if code:
        assert "t=0: loss overflows" in capsys.readouterr().err
    else:
        for line in (outdir / "restart_log.txt").read_text().splitlines():
            assert all(math.isfinite(float(x)) for x in line.split())


# --- overrides and determinism -----------------------------------------------------


def test_set_override_changes_dimension(tmp_path):
    outdir = tmp_path / "out"
    config = _sbm_config(tmp_path, outdir)
    assert main(["embed", "--config", config, "--set", "method.d=4"]) == 0
    header = (outdir / "emb_t0.src").read_text().splitlines()[0]
    assert header == "40 4"


def test_seed_override_changes_data(tmp_path):
    config = _sbm_config(tmp_path, tmp_path / "a")
    assert main(["embed", "--config", config, "--seed", "1"]) == 0
    assert main(["embed", "--config", config, "--seed", "2",
                 "--outdir", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "snapshots.txt").read_bytes() != \
        (tmp_path / "b" / "snapshots.txt").read_bytes()


def test_manifest_identical_across_outdirs(tmp_path):
    snaps = tmp_path / "snapshots.txt"
    snaps.write_text(TINY_SNAPSHOTS)
    config = _write_config(
        tmp_path / "config.json",
        data={"snapshots": str(snaps)},
        method={"name": "optsvd", "d": 1},
        tasks={"reconstruction": {"k_grid": [1]}},
    )
    assert main(["run", "--config", config, "--outdir", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", config, "--outdir", str(tmp_path / "b")]) == 0
    man_a = (tmp_path / "a" / "manifest.json").read_bytes()
    man_b = (tmp_path / "b" / "manifest.json").read_bytes()
    assert man_a == man_b
    parsed = json.loads(man_a)
    assert set(parsed) == {"config", "files", "versions"}
    assert "outdir" not in json.dumps(parsed["config"])


def test_cli_import_pulls_in_only_numpy_beyond_the_standard_library():
    # setup time is part of every run; importing scipy.special alone costs
    # more than importing the whole CLI, so no optional numeric package may
    # come in at import time
    src = str(Path(dynembed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = ("import sys; before = set(sys.modules); import dynembed.cli; "
              "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
              "print(' '.join(sorted(new - set(sys.stdlib_module_names))))")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert set(out.stdout.split()) <= {"dynembed", "numpy"}
