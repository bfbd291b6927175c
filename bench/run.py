"""dynembed benchmark: `dynembed run` end to end, and a traced per-layer run.

Usage, from the root of a dynembed checkout:

    python3 bench/run.py --workload svd-track --seed 1 --seconds 35 --trace 0

The workloads are defined in workloads.py. Runs are a closed loop with one
client: each run is a fresh process (child.py) started after the previous
one ended, with a fresh, empty outdir that is removed after its checks.

--trace 0 repeats the run while the next one is likely to end within
--seconds (at least once) and reports the end-to-end metrics: medians of
setup_s, run_s, cpu_s and peak_rss_mb, and micro_f1. Further set-up-only
processes add samples to setup_s. It also prints fail_frac, which the result
line carries as attempted and failed, and every fidelity number the workload
has (loss_ratio_max and the report metrics); only micro_f1 is in the result
line, because every workload has it.
--trace 1 makes one untraced and one traced run and reports the per-layer
metrics of tracing.py, with the tracing overhead.

Every run is checked (checks.py); a run that exits non-zero or fails a check
counts in `failed`. Repeats within one invocation must write a byte-identical
manifest.json. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS, workload_config

BENCH_DIR = Path(__file__).resolve().parent
# a run must end well within the 180 s a benchmark process may take
DEADLINE_S = 170.0
# set-up-only processes per --trace 0 invocation, after one unmeasured warm-up
SETUP_PROBES = 6
# One BLAS thread per run. With the default two on a shared 2-core host,
# svd-track's run_s ranged 7.1-9.2 s with the neighbours' load; with one it
# ranged 9.77-9.97 s.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Invocation:
    """The runs of one benchmark invocation, in a private work directory."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.config = workload_config(workload, seed)
        self.started = time.monotonic()
        work = root / ".bench_work"
        work.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        self.env = dict(os.environ, **BLAS_THREADS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.runs = []  # one dict per attempted run
        self.manifest = None
        self.fidelity = None
        self.fidelity_problems = []
        self.count = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another invocation still uses it

    def _spawn(self, extra: list) -> tuple:
        """Start child.py, wait for it, and return (exit code, result, stderr)."""
        self.count += 1
        result_path = self.dir / f"result{self.count}.json"
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            return None, None, "no time left before the deadline"
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), "--spawned", repr(spawned),
             "--config", str(self.config_path), "--result", str(result_path)] + extra,
            env=self.env, cwd=self.root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        try:
            _, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, None, f"killed after {remaining:.0f} s"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        result = None
        if result_path.is_file():
            result = json.loads(result_path.read_text(encoding="utf-8"))
            result_path.unlink()
        return proc.returncode, result, err

    def setup_probe(self) -> float | None:
        code, result, _ = self._spawn(["--outdir", str(self.dir / "unused"), "--setup-only"])
        return result["setup_s"] if code == 0 and result else None

    def run(self, trace: bool = False) -> dict:
        """One checked run; the returned dict has "problems" empty when it passed."""
        outdir = self.dir / f"out{self.count + 1}"
        load1 = os.getloadavg()[0]
        code, result, err = self._spawn(["--outdir", str(outdir)] + (["--trace"] if trace else []))
        run = dict(result or {}, load1=load1, loaded=load1 > os.cpu_count(), problems=[])
        if code != 0:
            tail = err.strip().splitlines()[-1:] if err else []
            run["problems"].append(f"exit code {code} {tail}")
        elif result is None:
            run["problems"].append("no result written")
        else:
            try:
                run["problems"] += self._check(outdir, result)
            except (OSError, ValueError, KeyError) as exc:
                run["problems"].append(f"unreadable output: {exc!r}")
        shutil.rmtree(outdir, ignore_errors=True)
        self.runs.append(run)
        return run

    def _check(self, outdir: Path, result: dict) -> list:
        src = self.root / "src"
        if not Path(result["module_file"]).resolve().is_relative_to(src.resolve()):
            return [f"dynembed was imported from {result['module_file']}, not from {src}"]
        problems = checks.check_run(outdir, self.config)
        if problems:
            return problems
        manifest = (outdir / "manifest.json").read_bytes()
        if self.manifest is None:
            self.manifest = manifest
            self.fidelity, self.fidelity_problems = checks.fidelity(outdir, self.config)
        elif manifest != self.manifest:
            return ["manifest.json differs from the first run of this invocation"]
        # the manifest pins every file's digest, so a repeat shares the first
        # run's fidelity and its problems
        return self.fidelity_problems


def median_summary(values: list) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    text = f"median {statistics.median(values):.6g} (n={len(values)}"
    for pct in (99.9, 99.0, 90.0):
        if len(values) * (1 - pct / 100) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            return text + f", p{pct:g} {cut[round(pct * 10) - 1]:.6g})"
    return text + ", too few samples for a tail percentile)"


def environment(root: Path, seed: int) -> dict:
    import numpy as np
    rev = None
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": rev,
        "src_sha256": _tree_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _tree_digest(src: Path) -> str:
    """Digest of every .py file under src, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def end_to_end(inv: Invocation, seconds: int, units: dict) -> dict:
    inv.setup_probe()  # warm-up: fills the bytecode cache, not measured
    setup = [s for s in (inv.setup_probe() for _ in range(SETUP_PROBES)) if s is not None]
    start = time.monotonic()
    while True:
        inv.run()
        elapsed = time.monotonic() - start
        if elapsed * (len(inv.runs) + 1) / len(inv.runs) > seconds:
            break  # the next run would likely end after --seconds
    good = [r for r in inv.runs if not r["problems"]]
    setup += [r["setup_s"] for r in good]
    samples = {"setup_s": setup, **{k: [r[k] for r in good]
                                    for k in ("run_s", "cpu_s", "peak_rss_mb")}}
    metrics = {}
    for name, values in samples.items():
        if values:
            print(f"{name:<16} {median_summary(values)} {units[name]}")
            metrics[name] = statistics.median(values)
    return metrics


def traced(inv: Invocation, units: dict) -> dict:
    plain = inv.run()
    run = inv.run(trace=True)
    if plain["problems"] or run["problems"]:
        return {}
    metrics = tracing.layer_metrics(run["trace"], run["run_s"], plain["run_s"])
    print(f"untraced run_s {plain['run_s']:.4f} s, traced run_s {run['run_s']:.4f} s, "
          f"overhead {metrics['trace.overhead_s']:.4f} s")
    coverage = metrics["trace.coverage"]
    print(f"accounting: top-level spans cover {coverage:.3f} of traced run_s "
          f"({'ok' if coverage >= 0.9 else 'BELOW 0.9'})")
    print(f"{'layer metric':<34}{'value':>14}  unit     share of run_s")
    for name, value in metrics.items():
        unit = units.get(name, "?")
        share = f"{value / run['run_s']:8.1%}" if unit == "s" else ""
        print(f"{name:<34}{value:>14.6g}  {unit:<8} {share}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description="dynembed benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "dynembed" / "__init__.py").is_file():
        print(f"error: {root} is not a dynembed checkout (no src/dynembed)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}

    print("env " + json.dumps(environment(root, args.seed)))
    inv = Invocation(root, args.workload, args.seed)
    try:
        if args.trace:
            metrics = traced(inv, units)
        else:
            metrics = end_to_end(inv, args.seconds, units)
    finally:
        inv.close()

    failed = [r for r in inv.runs if r["problems"]]
    for i, run in enumerate(inv.runs, 1):
        flag = " STARTED UNDER LOAD" if run["loaded"] else ""
        times = (f"run_s {run['run_s']:.4f} cpu_s {run['cpu_s']:.4f} "
                 f"peak_rss_mb {run['peak_rss_mb']:.1f} " if "run_s" in run else "")
        print(f"run {i}: {times}load1 {run['load1']:.2f}{flag} "
              f"{'FAILED ' + '; '.join(run['problems']) if run['problems'] else 'ok'}")
    print(f"fail_frac        {len(failed) / len(inv.runs):.4g} "
          f"({len(failed)} of {len(inv.runs)} runs)")
    for name, value in sorted((inv.fidelity or {}).items()):
        print(f"{name:<16} {value} ratio")
    if not args.trace:
        metrics.update({k: v for k, v in (inv.fidelity or {}).items() if k in wanted})

    correct = not failed and all(metrics.get(name) is not None for name in wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": len(inv.runs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics.get(name), "unit": units[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
