#!/usr/bin/env python3
"""Peak resident memory of CLI runs, each in a fresh interpreter, against bounds.

    PYTHONPATH=src python scripts/peak_memory.py

Prints one line per case and exits 1 if a run fails or exceeds its bound.  The
peak is ru_maxrss (tracemalloc sees neither BLAS buffers nor the engine), the
larger of the interpreter's, with its threads, and of its largest child's.
"""

import json
import math
import os
import subprocess
import sys
import tempfile


def _bad_rows(report):
    """Betas whose semiclassical estimate is not finite with a finite, positive error."""
    return [r["beta"] for r in report["rows"] if not (
        math.isfinite(r["delta_f_semiclassical"]) and 0 < r["stderr_semiclassical"] < math.inf)]


# name: (argv, limit in MB, check of the report, config text or None for the command's defaults)
CASES = {
    # fig3-sweep's sizes: about 53 MB with W drawn after the trace and every reader of it
    # holding block-length temporaries (with PYTHONPATH relative or absolute); 58 MB when the
    # Jarzynski average held one more array of W's length, 59 MB when W was held through
    # the trace, 72 MB when the draw held every position and V, 95 MB when every run
    # imported scipy, 105 with a whole-chunk phase covariance, 230 with full-size temporaries.
    "scenario fig3": (["scenario", "fig3"], 60, None,
                      "beta_list = 2^-8, 2^-10, 2^-12\nhbar_list = 1\nn_samples = 16384\n"
                      "n_classical = 1000000\nworkers = 1\nseed = 7\n"),
    # sc-single's sizes; the peak is the one process, its two threads each tracing a chunk of
    # 512 x 256 integrals: about 43 MB (42 MB in the parent of a process pool whose workers
    # traced 8,192-ray chunks in sub-blocks of 1,024 rays), 45 MB with a whole 8,192-ray chunk's
    # integrals at once, 55.6 MB when a worker took the phases in numpy blocks of 1,024 rows.
    "semiclassical at sc-single sizes": (["semiclassical"], 46, None,
                                         "beta_list = 2^-12\nhbar_list = 1\nu_points = 256\n"
                                         "n_samples = 16384\nworkers = 2\nseed = 7\n"),
    # About 57 MB in one process tracing 512-ray chunks, 72-77 MB with 8,192-ray chunks traced
    # in sub-blocks of 1,024 rays, 113 MB with the whole chunk's integrals at once (175 MB when
    # first bounded, with the free-energy error summed per sample), 582 MB when each
    # temperature held a (2048 x 2048) phase second moment.  Every report row must carry a
    # finite semiclassical estimate with a positive error, as benchmarks/checks.py asks of
    # fig3-sweep.
    "jarzynski": (["jarzynski"], 62, _bad_rows,
                  "u_points = 1024\nn_samples = 2048\nn_classical = 20000\nworkers = 1\n"
                  "seed = 7\n"),
    # About 56 MB (120 MB when first bounded) with the inversion as FFTs over 2 u_points - 1
    # bins, 808 MB with dense u_points x (2 u_points - 1) cos/sin matrices.  The bound keeps the
    # inversion linear in u_points: one quadratic array of this plan alone would take 268 MB.
    "semiclassical at 4096 u points": (["semiclassical"], 200, None,
                                       "u_points = 4096\nn_samples = 512\nworkers = 1\nseed = 7\n"),
    # Its own defaults (beta 0.3, quantum_h 0.04, the full spectrum) once exited 1.  The dense
    # solve at them: about 78 MB with syevd in place on H, 94 MB when numpy.linalg.eigh copied H.
    "quantum": (["quantum"], 90, None, None),
    # Its 4 M samples: about 76 MB with W binned by gridded Gaussians a block at a time,
    # 299 MB when bin_spikes formed temporaries of the sample's length for each bin offset.
    "classical": (["classical"], 100, None, None),
}

_CHILD = """
import contextlib, io, json, resource, sys
from chaowork import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = cli.main(sys.argv[1:])
kb = max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(json.dumps({"rc": rc, "peak_mb": kb / 1024, "result": json.loads(out.getvalue() or "null")}))
"""


def measure(argv, config):
    """Exit code, peak RSS in MB and printed result of one run, its output in a temp dir."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [*argv, "--out", tmp]
        if config is not None:
            argv += ["--config", os.path.join(tmp, "case.cfg")]
            with open(argv[-1], "w") as fh:
                fh.write(config)
        child = subprocess.run([sys.executable, "-c", _CHILD, *argv], stdout=subprocess.PIPE)
    run = json.loads(child.stdout)
    return run["rc"], run["peak_mb"], run["result"]


def main():
    # The engine is built in an interpreter of its own, so no case counts the compiler.
    subprocess.run([sys.executable, "-c", "from chaowork import native; native.load()"], check=True)
    failed = False
    for name, (argv, limit_mb, check, config) in CASES.items():
        rc, peak_mb, result = measure(argv, config)
        bad = check(result["report"]) if check and rc == 0 else []
        print(f"{name}: exit {rc}, peak RSS {peak_mb:.1f} MB (limit {limit_mb} MB)"
              + "".join(f"; no finite estimate at beta = {beta!r}" for beta in bad))
        failed |= bool(rc or bad or peak_mb > limit_mb)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
