"""The benchmark's workloads: fixed sweep shapes, sized by the bandwidth b.

Each workload is a list of `SweepSpec`s run back to back; together they are
one *round*. Every cell runs a single trial (iterations = 1), so a cell's
`mean_cond` is that trial's condition number and can be checked against an
oracle. The benchmark runs each workload at its own b; the self-test runs the
same shapes at b <= 2.
"""

from dataclasses import dataclass
from typing import Callable

from pathfield import Scheme, SweepSpec, UNAWARE_SCHEMES

GAMMA = 0.05
NOISE_SIGMA = 0.01
# The ci.cfg m grid, as multiples of n = (2b+1)^2.
GRID_MULTIPLES = [1.5, 2.0, 4.0, 8.0]

UNAWARE = [s for s in Scheme if s in UNAWARE_SCHEMES]


def _points(base_seed: int, b: int) -> list:
    # Point rows and the dense solve dominate: a line trial at b=10 builds a
    # ~52k x 441 matrix. The reduced form of full.cfg's heaviest cell.
    return [SweepSpec(
        schemes=[Scheme.LINE_BOUNDARY_POINTS, Scheme.SCATTERED], b_values=[b],
        m_multiples=[4.0], gamma_values=[GAMMA], iterations=1,
        base_seed=base_seed, noise_sigma=NOISE_SIGMA, reconstruct=True,
    )]


def _grid(base_seed: int, b: int) -> list:
    # The ci.cfg grid plus its location-unaware twin: small trials where the
    # per-path Python loops and the sweep loop cost more than arithmetic.
    common = dict(b_values=[b], m_multiples=GRID_MULTIPLES, gamma_values=[GAMMA],
                  iterations=1, base_seed=base_seed, noise_sigma=NOISE_SIGMA,
                  reconstruct=True)
    return [SweepSpec(schemes=list(Scheme), **common),
            SweepSpec(schemes=UNAWARE, aware=[False], **common)]


@dataclass(frozen=True)
class Workload:
    name: str
    b: int
    build: Callable[[int, int], list]

    def specs(self, base_seed: int, b: int | None = None) -> list:
        """The round's specs at the workload's b, or at `b` when given."""
        return self.build(base_seed, self.b if b is None else b)


WORKLOADS = {w.name: w for w in (
    Workload("points_b10", 10, _points),
    Workload("grid_b3", 3, _grid),
)}
