"""One measured `dynembed run` in a fresh process.

Usage: python3 bench/child.py --spawned T --config C --outdir D --result R
       [--trace] [--setup-only]

T is the parent's time.monotonic() just before it started this process, so
setup_s spans interpreter start, the dynembed import and the config load.
The result file R receives the measurements as JSON; the exit code is the
one `dynembed run` returned. With --trace the layer functions are wrapped
(see tracing.py) and the spans are written to R after the run.
"""

import argparse
import json
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import dynembed
    from dynembed import cli
    from dynembed.config import from_dict

    with open(args.config, encoding="utf-8") as fh:
        from_dict(json.load(fh))
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s, "module_file": dynembed.__file__}
    if args.setup_only:
        _dump(result, args.result)
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    code = cli.main(["run", "--config", args.config, "--outdir", args.outdir])
    w1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result.update(
        exit_code=code,
        run_s=w1 - w0,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )
    if tracer is not None:
        result["trace"] = tracer.export(run_start=w0)
    _dump(result, args.result)
    return code


def _dump(result: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
