"""Checks on the outputs of one `dynembed run`, and the fidelity it reached.

Everything here reads the files the run wrote. The batch-optimal rank-d loss
is computed from snapshots.txt with numpy alone, so a defect in dynembed's
own graph or SVD code cannot also move the reference it is compared with.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Relative tolerance between a loss recomputed from the written embeddings
# (17 significant digits) and the loss the restart log reports.
LOSS_RTOL = 1e-9

# report file -> (field, fidelity metric name)
REPORT_FIELDS = {
    "report_reconstruction.json": ("map", "recon_map"),
    "report_static_lp.json": ("map", "static_lp_map"),
    "report_temporal_lp.json": ("map", "temporal_lp_map"),
    "report_classification.json": ("micro_f1", "micro_f1"),
    "report_migration_stat.json": ("stat", "migration_stat"),
}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def check_run(outdir: Path, config: dict) -> list:
    """Problems found in a finished run's outdir; empty when it passes.

    The outdir was empty before the run, so every file in it must be
    manifest.json or a file the manifest lists with a matching digest.
    """
    manifest_path = outdir / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"]
    listed = json.loads(manifest_path.read_text(encoding="utf-8"))["files"]
    problems = []
    for name, digest in listed.items():
        path = outdir / name
        if not path.is_file():
            problems.append(f"{name} listed in the manifest but missing")
        elif sha256(path) != digest:
            problems.append(f"{name} does not match its manifest digest")
    unlisted = sorted({p.name for p in outdir.iterdir()} - set(listed) - {"manifest.json"})
    if unlisted:
        problems.append(f"files not in the manifest: {unlisted}")
    method = config["method"]
    if method["name"] == "rerunsvd" and "restart_log.txt" in listed:
        theta = float(method["theta"])
        for t, _, cur_loss, bound in read_restart_log(outdir / "restart_log.txt"):
            if bound > 0 and not cur_loss <= (1.0 + theta) * bound:
                problems.append(f"t={t}: cur_loss {cur_loss:.17g} > (1+theta) * bound "
                                f"{bound:.17g}")
    return problems


def read_restart_log(path: Path) -> list:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        t, restarted, cur_loss, bound = line.split()
        rows.append((int(t), int(restarted), float(cur_loss), float(bound)))
    return rows


def report_fidelity(outdir: Path) -> dict:
    """The fidelity numbers of every report the run wrote."""
    out = {}
    for name, (field, metric) in REPORT_FIELDS.items():
        path = outdir / name
        if path.is_file():
            out[metric] = json.loads(path.read_text(encoding="utf-8"))[field]
    return out


def dense_snapshots(path: Path) -> list:
    """Dense adjacency per snapshot from the `T N` / `t u v w` text format."""
    with open(path, encoding="utf-8") as fh:
        length, n = (int(x) for x in fh.readline().split())
        edges = np.loadtxt(fh, comments="#", ndmin=2)
    adjs = [np.zeros((n, n)) for _ in range(length)]
    for t in range(length):
        rows = edges[edges[:, 0] == t]
        adjs[t][rows[:, 1].astype(np.int64), rows[:, 2].astype(np.int64)] = rows[:, 3]
    return adjs


def optimal_losses(adjs: list, d: int) -> list:
    """Batch-optimal rank-d loss per snapshot: the sum of sigma_i^2, i > d.

    The sigma_i^2 are the eigenvalues of A^T A, which eigvalsh finds about
    ten times faster than an SVD finds the sigma_i at n = 1000.
    """
    return [float(np.sum(np.linalg.eigvalsh(a.T @ a)[:-d])) for a in adjs]


def read_matrix(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        rows, cols = (int(x) for x in fh.readline().split())
        m = np.loadtxt(fh, ndmin=2)
    if m.shape != (rows, cols):
        raise ValueError(f"{path.name}: header says {rows}x{cols}, body is {m.shape}")
    return m


def loss_ratios(outdir: Path, adjs: list, optimum: list) -> list:
    """Per snapshot, ||A_t - Y_src Y_tgt^T||_F^2 over the optimal rank-d loss.

    Y_src Y_tgt^T is the score matrix every method's embedding defines; for
    the SVD methods it is U S V^T, so the numerator is the restart log's
    cur_loss.
    """
    ratios = []
    for t, (a, opt) in enumerate(zip(adjs, optimum)):
        src = read_matrix(outdir / f"emb_t{t}.src")
        tgt = read_matrix(outdir / f"emb_t{t}.tgt")
        resid = a - src @ tgt.T
        ratios.append(float(np.sum(resid * resid)) / opt)
    return ratios


def fidelity(outdir: Path, config: dict) -> tuple:
    """(fidelity metrics, problems) of a run that passed check_run."""
    problems = []
    adjs = dense_snapshots(outdir / "snapshots.txt")
    d = config["method"]["d"]
    optimum = optimal_losses(adjs, d)
    ratios = loss_ratios(outdir, adjs, optimum)
    if min(ratios) < 1.0 - LOSS_RTOL:
        problems.append(f"a rank-{d} embedding beats the optimal rank-{d} loss "
                        f"(ratio {min(ratios):.17g})")
    out = report_fidelity(outdir)
    log_path = outdir / "restart_log.txt"
    if log_path.is_file():
        # the SVD methods track this loss; an autoencoder's embedding is not
        # trained to approximate A, so its ratio (thousands) is not reported
        out["loss_ratio_max"] = max(ratios)
        for t, _, cur_loss, _ in read_restart_log(log_path):
            emb_loss = ratios[t] * optimum[t]
            if not math.isclose(cur_loss, emb_loss, rel_tol=LOSS_RTOL):
                problems.append(f"t={t}: restart log loss {cur_loss:.17g} differs from "
                                f"the written embedding's {emb_loss:.17g}")
    return out, problems
