"""The config field tables: every section rejects keys it does not name,
the names config and pipeline share agree, and the resolved form (hence
every manifest and config digest) is pinned byte for byte."""

import dataclasses
import json

import pytest

from dynembed import pipeline
from dynembed.ae import AeConfig
from dynembed.cli import build_parser, main
from dynembed.config import (METHOD_FIELDS, METHODS, REQUIRED, SBM_FIELDS, TASKS, TOP_FIELDS,
                             ConfigError, ExperimentConfig, from_dict)
from dynembed.pipeline import config_digest
from dynembed.sbm import SbmParams

SBM = {"node_num": 20, "community_num": 2, "length": 3, "node_change_num": 1}
FILES = {"snapshots": "graphs.txt", "labels": "labels.txt", "migrations": "moves.txt"}


def _config(data=None, method="optsvd", tasks=None, **top):
    raw = {"data": data or {"sbm": dict(SBM)}, "method": {"name": method}, **top}
    if tasks is not None:
        raw["tasks"] = tasks
    return raw


# --- unknown keys -----------------------------------------------------------


def _section(raw, path):
    for part in path:
        raw = raw[part]
    return raw


# (name of the section, the config, the path to the section in it)
SECTIONS = [
    ("", _config(), ()),
    ("data", _config(), ("data",)),
    ("data", _config(data={"snapshots": "graphs.txt"}), ("data",)),
    ("data.sbm", _config(), ("data", "sbm")),
    ("method", _config(method="d2v_ae"), ("method",)),
    ("tasks", _config(tasks={}), ("tasks",)),
] + [(f"tasks.{name}", _config(tasks={name: {}}), ("tasks", name)) for name in TASKS]


@pytest.mark.parametrize("where,raw,path", SECTIONS,
                         ids=[f"{w or 'top'}-{i}" for i, (w, _, _) in enumerate(SECTIONS)])
def test_unknown_key_in_every_section_is_named(where, raw, path):
    from_dict(raw)
    _section(raw, path)["p_inn"] = 0.3
    name = f"{where}.p_inn" if where else "p_inn"
    with pytest.raises(ConfigError, match=f"'{name}'") as exc:
        from_dict(raw)
    assert exc.value.field == name


def test_sbm_data_takes_no_label_files():
    for key in ("labels", "migrations"):
        with pytest.raises(ConfigError, match="'data'"):
            from_dict(_config(data={"sbm": dict(SBM), key: "x.txt"}))


def test_cli_rejects_a_misspelt_sbm_field(tmp_path, capsys):
    config = tmp_path / "config.json"
    raw = _config(outdir=str(tmp_path / "out"))
    raw["method"]["d"] = 2
    config.write_text(json.dumps(raw))
    assert main(["run", "--config", str(config), "--set", "data.sbm.p_inn=0.3"]) == 2
    assert "config field 'data.sbm.p_inn': unknown field" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --- one owner per default ----------------------------------------------------


def _dataclass_defaults(*classes) -> dict:
    """name -> default of every field of classes; a name that more than one
    class has takes the first one's default."""
    defaults = {}
    for cls in reversed(classes):
        for f in dataclasses.fields(cls):
            factory = f.default_factory
            defaults[f.name] = f.default if factory is dataclasses.MISSING else factory()
    return defaults


@pytest.mark.parametrize("table,classes", [
    (TOP_FIELDS, (ExperimentConfig,)),
    (METHOD_FIELDS, (ExperimentConfig, AeConfig)),
    (SBM_FIELDS, (SbmParams,)),
], ids=["top", "method", "sbm"])
def test_field_table_defaults_are_the_dataclass_defaults(table, classes):
    owners = _dataclass_defaults(*classes)
    mirrored = [key for key, (_, default) in table.items()
                if key in owners and default is not REQUIRED]
    assert mirrored
    for key in mirrored:
        assert table[key][1] == owners[key], key


def test_generate_flags_default_to_sbm_params():
    args = build_parser().parse_args(["generate", "--nodes", "20", "--communities", "2",
                                      "--length", "3", "--migrate", "1"])
    for key in ("diminish_community", "p_in", "p_out", "seed"):
        assert getattr(args, key) == getattr(SbmParams, key), key


# --- names two modules know ---------------------------------------------------


def test_config_and_pipeline_know_the_same_names():
    assert set(METHODS) == set(pipeline.METHOD_TABLE)
    for name in TASKS:
        assert callable(getattr(pipeline, f"task_{name}"))
    # a task the plan does not know would run without its pre-embed check
    task_functions = {name.removeprefix("task_") for name in vars(pipeline)
                      if name.startswith("task_")}
    assert set(TASKS) == set(pipeline.TASK_READS) == task_functions


# --- golden resolved form -------------------------------------------------------


ALL_TASKS = {name: {} for name in TASKS}
AE_FIELDS = {"beta": 3, "nu1": 1e-5, "nu2": 0.0, "enc_units": [40, 20],
             "dec_units": [30], "n_iter": 7, "xeta": 0.01, "n_batch": 16}
OVERRIDES = {"d": 6, "theta": 0.5, **AE_FIELDS, "lookback": 3}
NULLS = dict.fromkeys(OVERRIDES)
TASK_OVERRIDES = {
    "reconstruction": {"t": 1, "k_grid": [50, 5, 5, 1]},
    "static_lp": {"t": -2, "k_grid": [3], "hide_fraction": 0.35},
    "temporal_lp": {"t": 0, "mode": "new"},
    "classification": {"t": 2, "train_frac": 0.25},
    "migration_stat": {"anticipate": True},
    "projection": {"t": -1},
}


def _golden_configs() -> dict:
    configs = {}
    for method in METHODS:
        for fields_name, fields in (("default", {}), ("set", OVERRIDES), ("null", NULLS)):
            for tasks_name, tasks in (("none", None), ("all", ALL_TASKS)):
                raw = _config(method=method, tasks=tasks)
                raw["method"].update(fields)
                configs[f"{method}-{fields_name}-{tasks_name}"] = raw
    configs["rerunsvd-theta-inf"] = _config(method="rerunsvd")
    configs["rerunsvd-theta-inf"]["method"]["theta"] = "inf"
    configs["incsvd-theta-Infinity"] = _config(method="incsvd")
    configs["incsvd-theta-Infinity"]["method"]["theta"] = "Infinity"
    configs["null-task-specs"] = _config(tasks=dict.fromkeys(TASKS))
    configs["task-overrides"] = _config(method="dyngem", tasks=TASK_OVERRIDES, seed=5)
    configs["sbm-overrides"] = _config(
        data={"sbm": {**SBM, "diminish_community": 0, "p_in": 1, "p_out": 0.05, "seed": 3}},
        seed=8, outdir="elsewhere")
    configs["sbm-nulls"] = _config(
        data={"sbm": {**SBM, "diminish_community": None, "p_in": None, "p_out": None,
                      "seed": None}}, seed=None, outdir=None, tasks=None)
    configs["file-source"] = _config(data=dict(FILES), method="aealign", tasks=ALL_TASKS)
    configs["file-source-snapshots-only"] = _config(
        data={"snapshots": "graphs.txt", "labels": None}, method="d2v_ae")
    return configs


GOLDEN_DIGESTS = {
    "optsvd-default-none": "13eb6661b77b8b9b94d16fbb6b7bedabc1ea4748d87a80470e11ca5e63dbc1ac",
    "optsvd-default-all": "b0759b9cc1ba753e439b35ef44b8e813be274c8e1470f8f011ed01b4874853a9",
    "optsvd-set-none": "cd11f85ac2deec8b69b4252bba33dad83a86f8588964796116d11379a15ef730",
    "optsvd-set-all": "a68c5c0564db86db2ff911c98642bca552b2ac8e99b75f79f7d76cbbd592b383",
    "optsvd-null-none": "13eb6661b77b8b9b94d16fbb6b7bedabc1ea4748d87a80470e11ca5e63dbc1ac",
    "optsvd-null-all": "b0759b9cc1ba753e439b35ef44b8e813be274c8e1470f8f011ed01b4874853a9",
    "incsvd-default-none": "b10b96b5dda00628523aaefca91eea8af1fad7c6456d23c18a18028706a66f24",
    "incsvd-default-all": "36dae1d780f28fd2b9288a429ad74a80545239be3cf121848ea72eeb7b8567f3",
    "incsvd-set-none": "b3f620a1f95950243852f16d06cde6a8d3fcbbd188505c0decd0cde322879d17",
    "incsvd-set-all": "112216bf4e0a516d9a337d099141390eff8f483e89a24e2d1af5149b9865a381",
    "incsvd-null-none": "b10b96b5dda00628523aaefca91eea8af1fad7c6456d23c18a18028706a66f24",
    "incsvd-null-all": "36dae1d780f28fd2b9288a429ad74a80545239be3cf121848ea72eeb7b8567f3",
    "rerunsvd-default-none": "f58a4743acd172d250bb214c86eddaf3ae23d1edc11899e92b35b462850c2760",
    "rerunsvd-default-all": "620a0f1ad654497044065e1492bc75c84a1799354d88117e3135c0ea642d380a",
    "rerunsvd-set-none": "3a11b42b9c1d2d550af475bb31707ff1d8caf126916001d2c4e75a2ef1ed4fb9",
    "rerunsvd-set-all": "861dd32bd159db388fe737a909a66c3c4ecc7c5c58176e9cfd073e4220f3c629",
    "rerunsvd-null-none": "f58a4743acd172d250bb214c86eddaf3ae23d1edc11899e92b35b462850c2760",
    "rerunsvd-null-all": "620a0f1ad654497044065e1492bc75c84a1799354d88117e3135c0ea642d380a",
    "ae_static-default-none": "c0004511ddd36799586e97c96cd1d08b080b0fd3ce64e744bd84f692ce1bb6e4",
    "ae_static-default-all": "a363d84fc03be11b66e87a8b4523c56b6e5f325bd6d7b3a7f6367f0bf4689806",
    "ae_static-set-none": "e982c9c5b16b1d5239f43212d47b3475f68a6c4f2e436074f3daadae0e964d9c",
    "ae_static-set-all": "c5a7b89a4c68e3aac1e1d0fb6836f61c37e72ddac4794d91ce1ea508c8033e4a",
    "ae_static-null-none": "c0004511ddd36799586e97c96cd1d08b080b0fd3ce64e744bd84f692ce1bb6e4",
    "ae_static-null-all": "a363d84fc03be11b66e87a8b4523c56b6e5f325bd6d7b3a7f6367f0bf4689806",
    "aealign-default-none": "25c561d9874053fc3991d9535df59ba2684883d3a4431992130603447108a32f",
    "aealign-default-all": "d8c10c6f6a6f8ce772993fa4290b2d2e57335f2577f2e63126aab647304181e3",
    "aealign-set-none": "04b220a0e007008b6839f8d572b7764c8991a0e75110c076d28dcbf0c05127b7",
    "aealign-set-all": "2f4f1f88e497177618809c62cfe8ceea62654609e548ca5cbf2c2150dfbfab59",
    "aealign-null-none": "25c561d9874053fc3991d9535df59ba2684883d3a4431992130603447108a32f",
    "aealign-null-all": "d8c10c6f6a6f8ce772993fa4290b2d2e57335f2577f2e63126aab647304181e3",
    "dyngem-default-none": "fcece4555766dc9ec7e858d01b81e6947c0620a2beb7dde6cda8ccdea78b32b3",
    "dyngem-default-all": "5083136c929e30fe751d5a285bf6a75e32d34e05f86b7eeaea303731ca01af27",
    "dyngem-set-none": "0537b51b16966f38145a4c1a2c20fc4cc2156a5345b50b4a41c5f1757c1551c4",
    "dyngem-set-all": "0a46fbb68f0599ac79a9f1ee4e8282011cd2470e2ee16705371e4d31d4fea5ee",
    "dyngem-null-none": "fcece4555766dc9ec7e858d01b81e6947c0620a2beb7dde6cda8ccdea78b32b3",
    "dyngem-null-all": "5083136c929e30fe751d5a285bf6a75e32d34e05f86b7eeaea303731ca01af27",
    "d2v_ae-default-none": "cb12a048399b84c852099cd505a1cd0bb81f6cee403010d19766953cc81f6496",
    "d2v_ae-default-all": "603e13a9882263ee5b27ff1532a11c12f18c8ef1d4cf6d5c01adc8345d9f8e71",
    "d2v_ae-set-none": "dbc3698fd5a8382905746b244b5d1b5af0c55b2beab7f3a2e4201cf643d133aa",
    "d2v_ae-set-all": "028b86829677d4d347fb49f0f6dff3d20d935f8f6dcafb80cc9d63b8141256d3",
    "d2v_ae-null-none": "cb12a048399b84c852099cd505a1cd0bb81f6cee403010d19766953cc81f6496",
    "d2v_ae-null-all": "603e13a9882263ee5b27ff1532a11c12f18c8ef1d4cf6d5c01adc8345d9f8e71",
    "rerunsvd-theta-inf": "85986405d68b89f3ae3a9e96e67711c235c069c5266485b220a7d16489925ecf",
    "incsvd-theta-Infinity": "b10b96b5dda00628523aaefca91eea8af1fad7c6456d23c18a18028706a66f24",
    "null-task-specs": "b0759b9cc1ba753e439b35ef44b8e813be274c8e1470f8f011ed01b4874853a9",
    "task-overrides": "a807476c20b55c0092fcd56d5fed8c4e0311db4cdcadfa208534787de2700c8a",
    "sbm-overrides": "54c4e34f4b2954a1a4400c1beea99fcd32786c1cd9ae3e07f11eb7dbbbb3d179",
    "sbm-nulls": "13eb6661b77b8b9b94d16fbb6b7bedabc1ea4748d87a80470e11ca5e63dbc1ac",
    "file-source": "6890c6081da34f29d0af96c95ae9ec3fb01e15a4d589ae75ee12e02f34ff88a4",
    "file-source-snapshots-only": "4d79c995ba07b2e0d78c9dacc842b3a74b2be1442bb0fbd50fca8e017b34ff10",
}


def test_golden_digests_cover_the_config_set():
    assert len(GOLDEN_DIGESTS) >= 40
    assert set(GOLDEN_DIGESTS) == set(_golden_configs())


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_config_digest(name):
    assert config_digest(from_dict(_golden_configs()[name])) == GOLDEN_DIGESTS[name]
