"""The benchmark's workloads: seeded synthetic traces and the run settings.

Every workload plants four groups of flows (daily sine, square with a
96-step period, bursty-lognormal with bursts every 12 steps on average, and
12-hour sine) in 5-minute data and runs the desk profile (hidden size 16).
The workload seed only seeds the trace generator; the pipeline's own seed
stays 0. This module imports only the standard library, so the orchestrator
can use it without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

INTERVAL_SECONDS = 300

# (shape, period in steps, amplitude in bytes, noise std); a quarter of the
# flows each. The noise levels keep the four histograms apart, so cutting the
# dendrogram at four clusters recovers the groups on 19 of seeds 0..19 of
# abilene-hist-k16.
PLANTED_GROUPS = (
    ("sine", 288, 1.0e6, 5.0e4),
    ("square", 96, 8.0e5, 1.0e4),
    ("bursty-lognormal", 12, 2.0e6, 1.0e4),
    ("sine", 144, 6.0e5, 2.4e5),
)


@dataclass(frozen=True)
class Workload:
    name: str
    n_nodes: int
    n_steps: int
    representation: str
    metric: str
    linkage: str
    k: int
    epochs: int

    @property
    def n_flows(self) -> int:
        return self.n_nodes * self.n_nodes

    def tiny(self) -> "Workload":
        """The same code path at a size that runs in well under a second."""
        return replace(self, n_nodes=4, n_steps=400, k=5, epochs=min(self.epochs, 2))

    def group_sizes(self) -> list[int]:
        each = self.n_flows // len(PLANTED_GROUPS)
        return [each] * (len(PLANTED_GROUPS) - 1) + [
            self.n_flows - each * (len(PLANTED_GROUPS) - 1)
        ]


# Why each workload exists is in BENCHMARK.json and README.md. Every epoch
# count is at most the desk profile's early-stopping patience (5), so no model
# stops early and each seed trains exactly K x epochs epochs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="abilene-hist-k16",
            n_nodes=12, n_steps=1008, representation="histogram", metric="jsd",
            linkage="complete", k=16, epochs=5,
        ),
        Workload(
            name="wide-acf-k16",
            n_nodes=24, n_steps=1008, representation="acf", metric="euclidean",
            linkage="average", k=16, epochs=1,
        ),
    )
}
