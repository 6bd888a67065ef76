"""Synthetic traces with planted cluster structure.

Each flow group shares a waveform family (sine, square, or bursty-lognormal),
a period, an amplitude, and a noise level; flows within a group get random
phases. The generator returns the trace together with the planted partition,
so clustering quality can be scored against a known ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import Partition
from .dataset import TmSeries
from .errors import ValidationError

SHAPES = ("sine", "square", "bursty-lognormal")


@dataclass
class GroupSpec:
    """One planted group of flows.

    period_steps is the waveform period for sine/square and the mean spacing
    between bursts for bursty-lognormal. amplitude is the peak level for the
    periodic shapes and the median burst mark for the bursty shape.
    """

    n_flows: int
    period_steps: int
    amplitude: float
    noise_std: float = 0.0
    shape: str = "sine"

    def __post_init__(self):
        if self.n_flows < 1:
            raise ValidationError(f"group flow count must be positive, got {self.n_flows}")
        if self.period_steps < 2:
            raise ValidationError(f"period_steps must be >= 2, got {self.period_steps}")
        if self.amplitude <= 0:
            raise ValidationError(f"amplitude must be positive, got {self.amplitude}")
        if self.noise_std < 0:
            raise ValidationError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.shape not in SHAPES:
            raise ValidationError(f"shape must be one of {SHAPES}, got {self.shape!r}")


@dataclass
class SynthSpec:
    """Full description of a synthetic trace; group flow counts must sum to N^2."""

    n_nodes: int
    n_steps: int
    groups: list[GroupSpec]
    seed: int = 0
    interval_seconds: int = 300

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValidationError(f"n_nodes must be positive, got {self.n_nodes}")
        if self.n_steps < 2:
            raise ValidationError(f"n_steps must be >= 2, got {self.n_steps}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        total = sum(g.n_flows for g in self.groups)
        if total != self.n_nodes**2:
            raise ValidationError(
                f"group flow counts sum to {total}, expected N^2 = {self.n_nodes ** 2}"
            )


def _flow_series(group: GroupSpec, n_steps: int, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(n_steps, dtype=np.float64)
    p = float(group.period_steps)
    a = group.amplitude
    if group.shape == "sine":
        phase = rng.uniform(0.0, p)
        base = 0.5 * a * (1.0 + np.sin(2.0 * np.pi * (t + phase) / p))
    elif group.shape == "square":
        phase = rng.uniform(0.0, p)
        base = a * (((t + phase) % p) < p / 2.0).astype(np.float64)
    else:  # bursty-lognormal: sparse Bernoulli support with lognormal marks
        support = rng.random(n_steps) < 1.0 / p
        marks = rng.lognormal(mean=np.log(a), sigma=1.0, size=n_steps)
        base = np.where(support, marks, 0.0)
    if group.noise_std > 0:
        base = base + rng.normal(0.0, group.noise_std, size=n_steps)
    # traffic volume is nonnegative; truncate noise excursions at zero
    return np.maximum(base, 0.0)


def generate(spec: SynthSpec) -> tuple[TmSeries, Partition]:
    """Build the trace and its planted ground-truth partition.

    Deterministic for a fixed seed: flows are generated in index order from
    a single seeded generator. Flow m belongs to the group that covers index
    m when groups are laid out consecutively.
    """
    rng = np.random.default_rng(spec.seed)
    m = spec.n_nodes**2
    flows = np.empty((m, spec.n_steps), dtype=np.float64)
    labels = np.empty(m, dtype=np.int64)
    idx = 0
    for g_no, group in enumerate(spec.groups, start=1):
        for _ in range(group.n_flows):
            flows[idx] = _flow_series(group, spec.n_steps, rng)
            labels[idx] = g_no
            idx += 1
    truth = Partition(labels=labels, k=len(spec.groups), method="planted", seed=spec.seed)
    tm = TmSeries(
        n_nodes=spec.n_nodes,
        interval_seconds=spec.interval_seconds,
        values=flows.T.reshape(spec.n_steps, spec.n_nodes, spec.n_nodes).copy(),
    )
    return tm, truth
