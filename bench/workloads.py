"""The benchmark's two workloads and the inputs each makes from a seed.

A workload fixes the filter, the dimension, the channel counts, the signal
sizes, the threshold, and the verification resolution J and profile.  The
seed only chooses the signal values, so every seed does the same work.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    filter: str
    d: int
    # (m, n, count): `count` signals of m channels on an n or n x n grid
    signals: tuple
    threshold: float
    j: int
    profile: str
    # the CLI commands run on a manifest and signal with these m and n
    cli_m: int
    cli_n: int
    # how many times a round runs the four CLI commands; more than one where
    # a worker's set-up and cold verification cost as much as the commands
    cli_cycles: int


WORKLOADS = {
    w.name: w
    for w in (
        # The 20-tap periodic step dominates the transform and db10
        # construction dominates every fresh process.
        Workload("signal-1d", "db10", 1, ((1, 2**16, 1), (2, 2**16, 1), (3, 2**16, 1)),
                 threshold=0.25, j=10, profile="sampled", cli_m=2, cli_n=2**16,
                 cli_cycles=2),
        # Two taps: the 2-D schedule, band packing, thresholding and the
        # codecs dominate, and filter construction costs nothing.
        Workload("planar-haar", "haar", 2, ((2, 256, 1), (3, 256, 1)),
                 threshold=0.25, j=10, profile="exact", cli_m=3, cli_n=256,
                 cli_cycles=1),
    )
}


def levels_for(m: int, n: int) -> int:
    """Vector levels as deep as n allows, at most 3.

    One vector level costs m scalar levels and the base packing m - 1 more,
    so the scalar depth m * levels + m - 1 must not pass log2(n).
    """
    return min(3, (n.bit_length() - 1 - (m - 1)) // m)


def _channel_1d(rng, n: int) -> np.ndarray:
    t = np.arange(n) / n
    x = np.zeros(n)
    for _ in range(3):
        x += rng.uniform(0.5, 1.5) * np.sin(2 * np.pi * rng.integers(1, 9) * t + rng.uniform(0, 2 * np.pi))
    # piecewise-constant jumps give the detail bands large coefficients
    jumps = np.zeros(n)
    jumps[rng.integers(0, n, size=6)] = rng.normal(0.0, 1.0, size=6)
    return x + np.cumsum(jumps) + 0.05 * rng.standard_normal(n)


def _channel_2d(rng, n: int) -> np.ndarray:
    u, v = np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij")
    x = np.zeros((n, n))
    for _ in range(3):
        fu, fv = rng.integers(1, 6, size=2)
        x += rng.uniform(0.5, 1.5) * np.sin(2 * np.pi * (fu * u + fv * v) + rng.uniform(0, 2 * np.pi))
    # a half-plane edge at a random angle
    a = rng.uniform(0, np.pi)
    x += np.where(np.cos(a) * (u - 0.5) + np.sin(a) * (v - 0.5) > rng.uniform(-0.2, 0.2), 1.0, 0.0)
    return x + 0.05 * rng.standard_normal((n, n))


def make_signals(w: Workload, seed: int) -> list:
    """The workload's signals as (m, n, levels, values) tuples."""
    rng = np.random.default_rng([seed, sum(w.name.encode())])
    out = []
    for m, n, count in w.signals:
        for _ in range(count):
            if w.d == 1:
                values = np.stack([_channel_1d(rng, n) for _ in range(m)])
            else:
                values = np.stack([_channel_2d(rng, n) for _ in range(m)])
            out.append((m, n, levels_for(m, n), values))
    return out


def cli_signal_index(w: Workload) -> int:
    """Index into make_signals of the signal the CLI commands transform."""
    i = 0
    for m, n, count in w.signals:
        if (m, n) == (w.cli_m, w.cli_n):
            return i
        i += count
    raise ValueError(f"{w.name} has no signal with m={w.cli_m} n={w.cli_n}")
