"""Spans of real `pathfield.sweep.run_sweep` calls, and the layer metrics they yield.

`tracing` patches timing wrappers over the `pathfield.sweep` globals that
run_sweep and run_trial call, so every span times the real program. A trial
span opens when run_sweep asks `trial_seed` for the trial's seed and closes
when `run_trial` returns; each call run_trial makes gets a child span. The
trial span's self time is the sweep loop's own cost per trial: seed hash,
`SchemeConfig` and RNG construction. κ and the counts are read from the
wrapped calls' return values.
"""

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from pathfield import sweep
from pathfield.paths import Scheme

now = time.perf_counter_ns

TRIAL = "sweep.trial"
# Child span name -> the pathfield.sweep global it times, in call order.
CALLS = {
    "field.draw": "generate_random_field",
    "paths.gen": "generate_paths",
    "sensing.build": "build_matrix",
    "estimation.cond": "condition_number",
    "estimation.measure": "measure",
    "estimation.reconstruct": "reconstruct_and_score",
}
# Tail percentiles tried from the highest down; the first with at least ten
# trials beyond it is reported.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


@dataclass
class Trial:
    """One traced trial: its κ, exact counts and spans as (name, start, end) ns."""

    seed: int
    start: int
    spans: list = field(default_factory=list)
    paths: list | None = None  # held only until the trial span closes
    n: int = 0
    m: int = 0
    points: int = 0      # sample points over all paths
    rows: int = 0        # sensing matrix rows
    locations: int = 0   # locations a phasor row is evaluated at
    cond: float = math.nan

    def duration_ms(self, name: str) -> float | None:
        for span, start, end in self.spans:
            if span == name:
                return (end - start) / 1e6
        return None


@contextmanager
def patched(module, replacements: dict):
    """Within the block, module.<name> is replacements[name]."""
    real = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield real
    finally:
        for name, value in real.items():
            setattr(module, name, value)


@contextmanager
def tracing(trials: list):
    """Within the block, append one Trial to `trials` per trial run_sweep runs."""
    real = {name: getattr(sweep, name) for name in (*CALLS.values(), "trial_seed", "run_trial")}

    def trial_seed(*args, **kwargs):
        start = now()
        seed = real["trial_seed"](*args, **kwargs)
        trials.append(Trial(seed=seed, start=start))
        return seed

    def run_trial(config, *args, **kwargs):
        out = real["run_trial"](config, *args, **kwargs)
        trial = trials[-1]
        trial.spans.append((TRIAL, trial.start, now()))
        trial.cond, trial.n, trial.m = out[0], config.n, config.m
        trial.points = sum(len(sp) for sp in trial.paths)
        unaware_hives = not config.location_aware and config.scheme is Scheme.BEE_HIVE
        trial.locations = config.m if unaware_hives else trial.points
        trial.paths = None
        return out

    def timed(span: str, fn):
        def call(*args, **kwargs):
            start = now()
            out = fn(*args, **kwargs)
            trials[-1].spans.append((span, start, now()))
            return out
        return call

    wrappers = {name: timed(span, real[name]) for span, name in CALLS.items()}
    gen_paths, build = wrappers["generate_paths"], wrappers["build_matrix"]

    def generate_paths(*args, **kwargs):
        trials[-1].paths = paths = gen_paths(*args, **kwargs)
        return paths

    def build_matrix(*args, **kwargs):
        X = build(*args, **kwargs)
        trials[-1].rows = X.shape[0]
        return X

    wrappers.update(trial_seed=trial_seed, run_trial=run_trial,
                    generate_paths=generate_paths, build_matrix=build_matrix)
    with patched(sweep, wrappers):
        yield


def _median_ms(trials, name: str) -> float:
    values = [d for t in trials if (d := t.duration_ms(name)) is not None]
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple:
    """(percentile, value): the highest percentile with >= 10 samples beyond it.

    With fewer than 20 samples no percentile qualifies and the median stands in.
    """
    for pct in TAIL_PERCENTILES:
        if len(values) * (1 - pct / 100) >= 10:
            break
    return pct, float(np.percentile(values, pct))


def layer_metrics(trials, counted, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    Times are per-trial medians over `trials`; counts are exact totals over
    `counted`, the first round's trials, so they repeat for a fixed seed.
    Phasor and matrix sizes are computed from array sizes, not measured.
    """
    trial_ms = [t.duration_ms(TRIAL) for t in trials]
    self_ms = [t.duration_ms(TRIAL) - sum(t.duration_ms(c) or 0.0 for c in CALLS)
               for t in trials]
    per_path_us = [t.duration_ms("paths.gen") * 1e3 / t.m for t in trials]
    tail_pct, tail_ms = tail(trial_ms)
    excluded = sum(not math.isfinite(t.cond) for t in trials)
    return {
        "field.draw_ms": (_median_ms(trials, "field.draw"), "ms"),
        "paths.gen_ms": (_median_ms(trials, "paths.gen"), "ms"),
        "paths.us_per_path": (statistics.median(per_path_us), "us"),
        "paths.points": (sum(t.points for t in counted), "count"),
        "sensing.build_ms": (_median_ms(trials, "sensing.build"), "ms"),
        "sensing.rows": (sum(t.rows for t in counted), "count"),
        "sensing.phasors": (sum(t.locations * t.n for t in counted), "count"),
        "sensing.matrix_mb": (sum(t.rows * t.n * 16 for t in counted) / 1e6, "MB"),
        "estimation.cond_ms": (_median_ms(trials, "estimation.cond"), "ms"),
        "estimation.measure_ms": (_median_ms(trials, "estimation.measure"), "ms"),
        "estimation.reconstruct_ms": (_median_ms(trials, "estimation.reconstruct"), "ms"),
        "estimation.excluded_share": (excluded / len(trials), "ratio"),
        "sweep.trial_ms_p50": (statistics.median(trial_ms), "ms"),
        "sweep.trial_ms_tail": (tail_ms, "ms"),
        "sweep.trial_tail_pct": (tail_pct, "%"),
        "sweep.trials": (len(trials), "count"),
        "sweep.overhead_ms": (statistics.median(self_ms), "ms"),
        "trace.overhead_pct": ((traced_s / untraced_s - 1.0) * 100.0, "%"),
    }
