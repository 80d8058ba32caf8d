"""The empirical bound-trend check of acceptance criterion 2.

A sweep's mean condition number should not grow with the path count m.
"""

import math
from dataclasses import dataclass

from pathfield.paths import Scheme
from pathfield.sweep import SweepResult


@dataclass
class TrendGroup:
    """Condition-number trend along m for one (scheme, b, gamma, aware) row."""

    scheme: Scheme
    b: int
    gamma: float
    aware: bool
    monotone_ok: bool
    violations: list
    all_ge_one: bool


def check_bound_trend(result: SweepResult) -> list[TrendGroup]:
    """Empirical check that mean condition numbers do not grow with m.

    A step up is tolerated when it stays within one standard deviation of
    the previous cell. Groups with fewer than three m values are skipped.
    """
    report = []
    for (scheme, b, gamma, aware), cells in result.curves().items():
        if len(cells) < 3:
            continue
        means = [c.mean_cond for c in cells]
        violations = [
            i for i in range(len(cells) - 1)
            if math.isfinite(means[i]) and math.isfinite(means[i + 1])
            and means[i + 1] > means[i] + cells[i].std_cond
        ]
        report.append(TrendGroup(
            scheme=scheme, b=b, gamma=gamma, aware=aware,
            monotone_ok=not violations, violations=violations,
            all_ge_one=all(v >= 1.0 for v in means if math.isfinite(v)),
        ))
    return report
