"""One measurement in a fresh interpreter; run.py starts it, never a user.

Usage: ``python3 child.py '<json spec>'``.  The spec names the source tree,
the mode and a result path; the result is written there as JSON.

* ``setup``: time ``import chaowork.cli`` plus validating the config text.
* ``run``: the same set-up, timed, then call ``chaowork.cli.main(argv)`` and
  time it, with the CPU time of this process and of its reaped children
  (the pool workers), and the peak resident memory of the largest of them.
  With ``trace_dir`` set, the layers are wrapped first and every span is
  written to that directory.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for RUSAGE_CHILDREN it is the largest child.
    return max(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _import_and_validate(spec: dict):
    """The set-up a user pays: import the CLI and validate the config text."""
    start = time.perf_counter()
    from chaowork import cli

    cli.validate_config(spec["config_text"])
    return cli, time.perf_counter() - start


def setup(spec: dict) -> dict:
    _, elapsed = _import_and_validate(spec)
    return {"setup_s": elapsed, "versions": _versions()}


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    def blas(cfg):
        dep = cfg.CONFIG.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__),
        "scipy_blas": blas(scipy.__config__),
    }


def run(spec: dict) -> dict:
    cli, setup_s = _import_and_validate(spec)
    main = cli.main
    tracer = None
    if spec.get("trace_dir"):
        import tracer as tracing  # next to this file, so on sys.path

        tracer = tracing.Tracer(spec["run_id"], spec["trace_dir"])
        tracing.install(tracer)
        main = tracer.wrap("cli.main", cli.main)
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    code = main(spec["argv"])
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.flush()
    return {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
    }


def main() -> int:
    # run.py starts this process with SIGTERM blocked; pool workers must
    # receive it, or the pool cannot terminate them.
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    result = {"setup": setup, "run": run}[spec["mode"]](spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
