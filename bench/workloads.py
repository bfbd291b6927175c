"""The benchmark's workloads: one `dynembed run` config each, built from a seed.

Every workload uses the seeded dynamic SBM (2 communities, T = 10), so the
program receives only generated inputs. Each one loads a different layer:

* svd-track: rerunsvd at the ROADMAP grid point (n = 1000, d = 32,
  10 migrants per step) with only cheap tasks, so the incremental update and
  file writes dominate and ranking evaluation is not used.
* svd-rank: rerunsvd at n = 700, d = 16, theta = 1.0, 1 migrant per step,
  with three ranking tasks. Ranking, prefix re-embeds and batch restarts
  dominate; the deltas are narrow, so the incremental update matters little.
* ae-dyngem: dyngem at n = 300 with (500, 300) encoder and decoder units
  and 5 epochs. Autoencoder training dominates; the SVD layers are unused.

n = 4000 from the ROADMAP grid is left out: one run ranks 16 M pairs in
Python and takes minutes.
"""

WORKLOADS = {
    "svd-track": {
        "data": {"sbm": {"node_num": 1000, "community_num": 2, "length": 10,
                         "node_change_num": 10}},
        "method": {"name": "rerunsvd", "d": 32, "theta": 0.1},
        "tasks": {"classification": {}, "migration_stat": {}, "projection": {}},
    },
    "svd-rank": {
        "data": {"sbm": {"node_num": 700, "community_num": 2, "length": 10,
                         "node_change_num": 1}},
        "method": {"name": "rerunsvd", "d": 16, "theta": 1.0},
        # classification costs under 1% of a run here; it gives every
        # workload a micro_f1, the one fidelity metric all of them report
        "tasks": {"reconstruction": {}, "static_lp": {}, "temporal_lp": {"mode": "new"},
                  "classification": {}},
    },
    "ae-dyngem": {
        "data": {"sbm": {"node_num": 300, "community_num": 2, "length": 10,
                         "node_change_num": 10}},
        "method": {"name": "dyngem", "d": 32, "enc_units": [500, 300],
                   "dec_units": [500, 300], "n_iter": 5},
        "tasks": {"reconstruction": {}, "temporal_lp": {}, "classification": {},
                  "migration_stat": {}},
    },
}


def workload_config(name: str, seed: int) -> dict:
    """The experiment config of workload `name`; `seed` drives data and methods."""
    return {"seed": seed, **WORKLOADS[name]}
