"""Config parsing: defaults, validation messages, overrides, and the
resolved canonical form that feeds digests and manifests."""

import json
import math
from dataclasses import replace

import pytest

from dynembed.ae import AeConfig
from dynembed.config import (ConfigError, DataSource, DEFAULT_K_GRID, ExperimentConfig,
                             apply_overrides, from_dict, from_file)
from dynembed.pipeline import run_experiment
from dynembed.sbm import SbmParams


def _minimal(method="optsvd", **method_fields):
    return {
        "data": {"sbm": {"node_num": 20, "community_num": 2, "length": 3,
                         "node_change_num": 1}},
        "method": {"name": method, **method_fields},
    }


# --- defaults ----------------------------------------------------------------


def test_defaults():
    cfg = from_dict(_minimal())
    assert cfg.seed == 0
    assert cfg.outdir == "."
    assert cfg.d == 128
    assert cfg.theta == 0.1
    assert cfg.tasks == {}
    sbm = cfg.data.sbm
    assert sbm.p_in == 0.1 and sbm.p_out == 0.01
    assert sbm.diminish_community == 1
    assert sbm.seed == 0


def test_sbm_seed_inherits_outer_seed():
    raw = _minimal()
    raw["seed"] = 9
    cfg = from_dict(raw)
    assert cfg.data.sbm.seed == 9
    raw["data"]["sbm"]["seed"] = 4
    assert from_dict(raw).data.sbm.seed == 4


def test_task_defaults():
    raw = _minimal()
    raw["tasks"] = {"reconstruction": {}, "static_lp": None,
                    "temporal_lp": {}, "classification": {},
                    "migration_stat": {}, "projection": {}}
    tasks = from_dict(raw).tasks
    assert tasks["reconstruction"] == {"t": -1, "k_grid": DEFAULT_K_GRID}
    assert tasks["static_lp"]["hide_fraction"] == 0.2
    assert tasks["temporal_lp"]["mode"] == "all"
    assert tasks["classification"]["train_frac"] == 0.5
    assert tasks["migration_stat"] == {"t": -1, "anticipate": False}
    assert tasks["projection"] == {"t": -1}


def test_full_scale_reference_config_parses():
    raw = {
        "seed": 1,
        "data": {"sbm": {"node_num": 1000, "community_num": 2,
                         "node_change_num": 10, "length": 4}},
        "method": {"name": "d2v_ae", "d": 128, "lookback": 2, "beta": 5,
                   "nu1": 1e-6, "nu2": 1e-6, "n_iter": 250, "xeta": 1e-3,
                   "n_batch": 100},
        "tasks": {"temporal_lp": {"mode": "new"}},
    }
    cfg = from_dict(raw)
    assert cfg.method == "d2v_ae"
    assert cfg.ae.d == 128 and cfg.ae.lookback == 2
    assert cfg.ae.beta == 5.0 and cfg.ae.nu1 == 1e-6 and cfg.ae.nu2 == 1e-6
    assert cfg.ae.n_iter == 250 and cfg.ae.xeta == 1e-3 and cfg.ae.n_batch == 100
    assert cfg.data.sbm.node_num == 1000


def test_config_owns_d_and_seed(tmp_path):
    # an ae passed in, here with d 128 and seed 0, trains at the config's d and seed
    data = DataSource(sbm=SbmParams(node_num=20, community_num=2, length=3,
                                    diminish_community=1, node_change_num=1))
    cfg = ExperimentConfig(data=data, method="dyngem", d=16, seed=5,
                           outdir=str(tmp_path), ae=AeConfig(n_iter=1))
    assert cfg.ae.d == 16 and cfg.ae.seed == 5
    assert replace(cfg, seed=9).ae.seed == 9
    assert replace(cfg, d=3).ae.d == 3
    run_experiment(cfg)
    with open(tmp_path / "emb_t0.src", encoding="utf-8") as fh:
        assert fh.readline().split() == ["20", "16"]


# --- validation --------------------------------------------------------------


def test_unknown_fields_are_named():
    raw = _minimal()
    raw["bogus"] = 1
    with pytest.raises(ConfigError, match="'bogus'"):
        from_dict(raw)

    raw = _minimal()
    raw["method"]["momentum"] = 0.9
    with pytest.raises(ConfigError, match="method.momentum"):
        from_dict(raw)

    raw = _minimal()
    raw["tasks"] = {"clustering": {}}
    with pytest.raises(ConfigError, match="tasks.clustering"):
        from_dict(raw)

    # an unknown task is named as a task, not by the first field of its spec
    raw = _minimal()
    raw["tasks"] = {"clustering": {"k": 3}}
    with pytest.raises(ConfigError, match="unknown task") as exc:
        from_dict(raw)
    assert exc.value.field == "tasks.clustering"

    raw = _minimal()
    raw["tasks"] = {"reconstruction": {"threshold": 3}}
    with pytest.raises(ConfigError, match="reconstruction.threshold"):
        from_dict(raw)

    # another task's parameter is as unknown as a made-up one
    for task, key, value in (("reconstruction", "hide_fraction", 0.9),
                             ("classification", "k_grid", [1]),
                             ("static_lp", "mode", "new"),
                             ("temporal_lp", "train_frac", 0.5),
                             ("projection", "anticipate", True)):
        raw = _minimal()
        raw["tasks"] = {task: {key: value}}
        with pytest.raises(ConfigError, match=f"tasks.{task}.{key}"):
            from_dict(raw)


def test_rho_is_an_unknown_field():
    raw = _minimal(method="d2v_ae")
    raw["method"]["rho"] = 0.3
    with pytest.raises(ConfigError, match="'method.rho': unknown field") as exc:
        from_dict(raw)
    assert exc.value.field == "method.rho"


def test_unknown_method():
    with pytest.raises(ConfigError, match="method.name"):
        from_dict(_minimal(method="node2vec"))


def test_exactly_one_data_source():
    raw = _minimal()
    raw["data"]["snapshots"] = "x.txt"
    with pytest.raises(ConfigError, match="exactly one"):
        from_dict(raw)
    with pytest.raises(ConfigError, match="exactly one"):
        from_dict({"data": {}, "method": {"name": "optsvd"}})


def test_data_file_source():
    cfg = from_dict({"data": {"snapshots": "graphs.txt", "labels": "l.txt"},
                     "method": {"name": "optsvd"}})
    assert cfg.data.snapshots_path == "graphs.txt"
    assert cfg.data.labels_path == "l.txt"
    assert cfg.data.migrations_path is None


def test_bad_sbm_values_point_at_the_field():
    raw = _minimal()
    raw["data"]["sbm"]["community_num"] = 0
    with pytest.raises(ConfigError, match="data.sbm"):
        from_dict(raw)
    raw = _minimal()
    raw["data"]["sbm"]["node_num"] = "many"
    with pytest.raises(ConfigError, match="expected int, got str"):
        from_dict(raw)


def test_bool_is_not_an_int():
    raw = _minimal()
    raw["seed"] = True
    with pytest.raises(ConfigError, match="expected int, got bool"):
        from_dict(raw)


@pytest.mark.parametrize("theta,expected", [
    ("inf", math.inf),
    ("Infinity", math.inf),
    (0.25, 0.25),
    (2, 2.0),
])
def test_theta_parsing(theta, expected):
    cfg = from_dict(_minimal(method="rerunsvd", theta=theta))
    assert cfg.theta == expected


@pytest.mark.parametrize("theta", [0, -0.5, "huge", True])
def test_theta_rejections(theta):
    with pytest.raises(ConfigError, match="method.theta"):
        from_dict(_minimal(method="rerunsvd", theta=theta))


@pytest.mark.parametrize("units", [[], [0], ["8"], [True]])
def test_layer_width_validation(units):
    with pytest.raises(ConfigError, match="enc_units"):
        from_dict(_minimal(method="ae_static", enc_units=units))


def test_ae_field_errors_surface_as_config_errors():
    with pytest.raises(ConfigError, match="beta"):
        from_dict(_minimal(method="ae_static", beta=0.5))


def test_k_grid_validation_and_normalization():
    raw = _minimal()
    raw["tasks"] = {"reconstruction": {"k_grid": [100, 10, 10, 1]}}
    assert from_dict(raw).tasks["reconstruction"]["k_grid"] == [1, 10, 100]
    for bad in ([], [0], [1.5], [True]):
        raw["tasks"] = {"reconstruction": {"k_grid": bad}}
        with pytest.raises(ConfigError, match="k_grid"):
            from_dict(raw)


def test_task_param_bounds():
    raw = _minimal()
    raw["tasks"] = {"static_lp": {"hide_fraction": 1.0}}
    with pytest.raises(ConfigError, match="hide_fraction"):
        from_dict(raw)
    raw["tasks"] = {"temporal_lp": {"mode": "old"}}
    with pytest.raises(ConfigError, match="mode"):
        from_dict(raw)
    raw["tasks"] = {"classification": {"train_frac": 0.0}}
    with pytest.raises(ConfigError, match="train_frac"):
        from_dict(raw)
    raw["tasks"] = {"migration_stat": {"anticipate": 1}}
    with pytest.raises(ConfigError, match="anticipate"):
        from_dict(raw)


# --- resolved form ------------------------------------------------------------


def test_resolved_excludes_outdir():
    a = _minimal()
    b = _minimal()
    a["outdir"] = "/tmp/run_a"
    b["outdir"] = "/tmp/run_b"
    ra, rb = from_dict(a).resolved(), from_dict(b).resolved()
    assert ra == rb
    assert "outdir" not in json.dumps(ra)


def test_resolved_method_sections():
    opt = from_dict(_minimal()).resolved()["method"]
    assert opt == {"name": "optsvd", "d": 128}

    rerun = from_dict(_minimal(method="rerunsvd", theta="inf")).resolved()["method"]
    assert rerun["theta"] == math.inf
    assert "beta" not in rerun

    ae = from_dict(_minimal(method="ae_static", d=16)).resolved()["method"]
    assert ae["d"] == 16 and ae["beta"] == 5.0
    assert "lookback" not in ae and "theta" not in ae

    d2v = from_dict(_minimal(method="d2v_ae")).resolved()["method"]
    assert d2v["lookback"] == 2


def test_resolved_tasks_are_sorted():
    raw = _minimal()
    raw["tasks"] = {"temporal_lp": {"mode": "new"}, "reconstruction": {}}
    resolved = from_dict(raw).resolved()
    assert list(resolved["tasks"]) == ["reconstruction", "temporal_lp"]
    assert list(resolved["tasks"]["temporal_lp"]) == \
        sorted(resolved["tasks"]["temporal_lp"])


# --- files and overrides --------------------------------------------------------


def test_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_minimal()))
    assert from_file(path).method == "optsvd"
    with pytest.raises(ConfigError, match="cannot read"):
        from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        from_file(bad)


def test_overrides():
    raw = _minimal()
    out = apply_overrides(raw, ["method.d=64", "seed=3",
                                "tasks.reconstruction.k_grid=[1, 5]",
                                "data.sbm.seed=7", "outdir=/tmp/x"])
    cfg = from_dict(out)
    assert cfg.d == 64 and cfg.seed == 3
    assert cfg.tasks["reconstruction"]["k_grid"] == [1, 5]
    assert cfg.data.sbm.seed == 7
    assert cfg.outdir == "/tmp/x"


def test_override_plain_strings_pass_through():
    raw = _minimal()
    apply_overrides(raw, ["method.name=incsvd"])
    assert from_dict(raw).method == "incsvd"


def test_override_errors():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(_minimal(), ["method.d"])
    raw = _minimal()
    with pytest.raises(ConfigError, match="non-object"):
        apply_overrides(raw, ["method.name.x=1"])
