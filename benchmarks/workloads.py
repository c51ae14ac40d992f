"""The benchmark's workloads: one `chaowork` CLI invocation each.

A workload turns ``(seed, out_dir)`` into a configuration text plus the CLI
arguments that consume it, and names the directory the CLI writes into.
The program sees only that generated text.  Why each workload exists is in
README.md next to this file.

``size="tiny"`` shrinks every workload so the benchmark's own tests can run
the whole harness in seconds; it keeps the structure that the checks and the
tracing depend on (two engine chunks and a pool in ``sc-single``, three
temperatures in ``fig3-sweep``, a full dense spectrum in ``quantum-full``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # CLI arguments before --config
    workers: int  # pool workers the config asks for; sizes the BLAS pin
    full: dict
    tiny: dict
    out_subdir: str = ""  # where the CLI puts its files, under out_dir

    def settings(self, size: str) -> dict:
        if size not in ("full", "tiny"):
            raise ValueError(f"unknown size {size!r}")
        return {**self.full, **(self.tiny if size == "tiny" else {})}

    def config_text(self, seed: int, out_dir: str, size: str = "full") -> str:
        lines = [f"{k} = {v}" for k, v in self.settings(size).items()]
        lines += [f"workers = {self.workers}", f"seed = {seed}", f"out_dir = {out_dir}"]
        return "\n".join(lines) + "\n"

    def argv(self, config_path: str) -> list[str]:
        return [*self.command, "--config", config_path]

    def output_dir(self, out_dir: str) -> str:
        return os.path.join(out_dir, self.out_subdir) if self.out_subdir else out_dir


WORKLOADS = {
    w.name: w
    for w in (
        # One long request: 256 checkpoints, two 8192-row chunks on a pool of 2.
        Workload(
            name="sc-single",
            command=("semiclassical",),
            workers=2,
            full={
                "beta_list": "2^-12",
                "hbar_list": "1",
                "u_points": 256,
                "n_samples": 16384,
            },
            tiny={"u_points": 8},
        ),
        # Three short requests on the same positions plus the classical and
        # quadrature references; u_points is left to the scenario's default.
        Workload(
            name="fig3-sweep",
            command=("scenario", "fig3"),
            workers=1,
            full={
                "beta_list": "2^-8, 2^-10, 2^-12",
                "hbar_list": "1",
                "n_samples": 16384,
                "n_classical": 1_000_000,
            },
            tiny={"n_samples": 2048, "n_classical": 20_000, "u_points": 16},
            out_subdir="fig3",
        ),
        # Dense full-spectrum oracle: no engine, BLAS-bound, write-heavy.
        Workload(
            name="quantum-full",
            command=("quantum",),
            workers=1,
            full={"beta_list": "0.02", "hbar_list": "1", "u_points": 512},
            tiny={"quantum_h": 0.1, "u_points": 64},
        ),
    )
}
