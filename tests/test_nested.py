"""Nested m: the cells of one curve and trial share one draw of paths.

A curve is the cells of a sweep that differ only in m. Within one iteration
they share a trial seed, so a cell's paths are the first m of one draw, and
each cell extends the operator sums the smaller cell before it left in the
draw (`paths.Draw`, its paths and `kept`).
These tests pin what that must not change: a cell's row is the same whatever
other m values the grid holds, and a nested cell's operator is bit for bit the
one its trial builds alone. They also show what it buys and what it keeps:
the Gram grows in Loewner order along a curve, and each cell's distribution of
kappa is that of independent draws.
"""

import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from pathfield import sensing
from pathfield.field import generate_random_field
from pathfield.paths import UNAWARE_SCHEMES, Draw, Scheme, SchemeConfig, generate_paths
from pathfield.sensing import build_matrix, condition_number
from pathfield.sweep import SweepSpec, run_sweep, run_trial, trial_seed

CASES = [(s, True) for s in Scheme] + [(s, False) for s in Scheme if s in UNAWARE_SCHEMES]
IDS = [f"{s.value}-{'aware' if aware else 'unaware'}" for s, aware in CASES]


def _rows_at(text: str, m: int) -> list:
    return [line for line in text.splitlines()[1:] if line.split(",")[2] == str(m)]


@pytest.mark.parametrize("aware", [True, False], ids=["aware", "unaware"])
def test_a_cells_row_does_not_depend_on_the_other_m_of_the_grid(aware):
    # b = 2 (n = 25): the m = 2n row of every scheme, with noise and the solve,
    # is byte-identical alone, nested between 1.5n and 8n, and after 8n.
    schemes = [s for s, a in CASES if a == aware]
    texts = [run_sweep(SweepSpec(schemes=schemes, b_values=[2], m_multiples=grid, iterations=3,
                                 base_seed=4, noise_sigma=0.01, aware=[aware])).to_csv_text()
             for grid in ([2.0], [1.5, 2.0, 8.0], [8.0, 2.0])]
    rows = [_rows_at(text, 50) for text in texts]
    assert len(rows[0]) == len(schemes)
    assert rows[0] == rows[1] == rows[2]


def test_rows_come_out_in_cells_order_whatever_order_they_run_in():
    # Unsorted multiples run in increasing m, and write their rows in the
    # spec's cells() order, each equal to the sorted grid's row of that cell.
    common = dict(schemes=[Scheme.LINE_BOUNDARY_AVG, Scheme.BEE_HIVE], b_values=[1],
                  iterations=2, base_seed=3, noise_sigma=0.01)
    spec = SweepSpec(m_multiples=[8.0, 2.0], **common)
    lines = run_sweep(spec).to_csv_text().splitlines()
    assert [line.split(",")[:3] for line in lines[1:]] == \
        [[c.scheme.value, str(c.b), str(c.m)] for c in spec.cells()]
    ordered = run_sweep(SweepSpec(m_multiples=[2.0, 8.0], **common)).to_csv_text().splitlines()
    assert sorted(lines[1:]) == sorted(ordered[1:])


def _trial_operator(config: SchemeConfig, draw: Draw | None):
    rng = np.random.default_rng(config.seed)  # run_trial's draws: field, then paths
    generate_random_field(config.b, rng)
    paths = generate_paths(config, rng, draw)
    return paths, build_matrix(paths, config, draw)


def _nested_is_fresh(config: SchemeConfig, draw: Draw):
    """The config's operator built on the draw, after asserting that it is,
    bit for bit, the one its trial builds alone, and so is its kappa."""
    nested_paths, nested = _trial_operator(config, draw)
    paths, fresh = _trial_operator(config, None)
    assert nested_paths.points.tobytes() == paths.points.tobytes()
    assert nested.gram.tobytes() == fresh.gram.tobytes()
    for name in ("rows", "phasors"):
        mine, theirs = getattr(nested, name), getattr(fresh, name)
        assert (mine is None) == (theirs is None)
        assert mine is None or mine.tobytes() == theirs.tobytes()
    assert condition_number(nested) == condition_number(fresh)
    return nested


@pytest.mark.parametrize("scheme, aware", CASES, ids=IDS)
@pytest.mark.parametrize("b, ms", [(2, [38, 50, 100, 200, 300, 600]), (3, [74, 98, 196, 392]),
                                   (2, [300, 100, 300, 70])],
                         ids=["b2", "b3", "b2-smaller"])
def test_a_nested_cell_is_its_trial_built_alone(scheme, aware, b, ms):
    # The m cross PATH_BLOCK, ROW_BLOCK and CHUNK boundaries, and b = 3 line
    # points fill several BLOCKs of points; each nested operator is the one its
    # fresh trial builds, bit for bit, and so is its kappa. A draw handed a
    # smaller cell keeps blocks past its paths, and the build starts afresh.
    draw = Draw()
    for m in ms:
        _nested_is_fresh(SchemeConfig(scheme=scheme, m=m, b=b, gamma=0.05,
                                      location_aware=aware, seed=9), draw)


def test_a_draw_refuses_a_switch_of_awareness():
    # Same seed, aware and then unaware: the unaware cell would continue the
    # true points' sums with stand-in blocks (kappa 1.2989, against 1.3070
    # built alone) if the draw served it.
    draw = Draw()
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=200, b=1, seed=3)
    _trial_operator(config, draw)
    with pytest.raises(ValueError, match="^a Draw serves the cells of one trial and curve$"):
        _trial_operator(replace(config, m=300, location_aware=False), draw)


def test_a_draw_refuses_an_operator_of_another_curve():
    # Seed 3's aware line points at m = 200, then its m = 300 paths from the
    # same draw built unaware: the stand-ins' sums would continue the true
    # points' (kappa 1.454866, against 1.462229 built alone). The refusal comes
    # before the build takes the kept sums out of the draw, which still serves
    # its own curve.
    draw = Draw()
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=200, b=1, seed=3)
    build_matrix(generate_paths(config, draw=draw), config, draw)
    kept, larger = draw.kept, replace(config, m=300)
    paths = generate_paths(larger, draw=draw)
    with pytest.raises(ValueError, match="^a Draw serves the cells of one trial and curve$"):
        build_matrix(paths, replace(larger, location_aware=False), draw)
    assert draw.kept is kept
    assert condition_number(build_matrix(paths, larger, draw)) == \
        condition_number(build_matrix(paths, larger))


def test_a_draw_refuses_paths_it_did_not_make():
    # Seed 4's m = 600 paths handed the draw of seed 3's m = 300 cell: built on
    # its kept sums they would give kappa 7.5903, against 7.5939 built alone.
    # The refusal comes before the build takes the kept sums out of the draw.
    draw = Draw()
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_AVG, m=300, b=3, gamma=0.05, seed=3)
    _trial_operator(config, draw)
    kept, other = draw.kept, replace(config, m=600, seed=4)
    paths = _trial_operator(other, None)[0]
    with pytest.raises(ValueError, match="^a Draw serves the cells of one trial and curve$"):
        build_matrix(paths, other, draw)
    assert draw.kept is kept and kept.done == 256 and len(kept.rows) == 256


def test_the_last_cells_rows_are_freed_before_the_next_cells_are_made(monkeypatch):
    # The draw keeps the m = 300 cell's rows for the m = 600 cell, whose build
    # copies them and lets them go before it computes its own.
    draw = Draw()
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_AVG, m=300, seed=3)
    X = _trial_operator(config, draw)[1]
    rows = weakref.ref(X.rows)
    del X
    assert rows() is not None
    freed = []
    real = sensing._mean_rows

    def mean_rows(*args):
        freed.append(rows() is None)
        real(*args)

    monkeypatch.setattr(sensing, "_mean_rows", mean_rows)
    _trial_operator(replace(config, m=600), draw)
    assert freed == [True]


def test_an_unaware_curve_peaks_below_90_bytes_per_reading():
    # Unaware line points at b = 10, gamma = 0.02, one trial from 1.5n to 8n,
    # condition only: the 8n cell has 267,291 readings. The draw keeps 16 B of
    # points per reading and one 32 B phasor per stand-in, whose locations go
    # once exponentiated; growing the phasors from 4n to 8n briefly holds the
    # old and new parts beside the whole, 64 B per reading. It read 81.5 B.
    spec = SweepSpec(schemes=[Scheme.LINE_BOUNDARY_POINTS], b_values=[10], gamma_values=[0.02],
                     iterations=1, aware=[False], reconstruct=False)
    (curve,) = spec.curves().values()
    draw = Draw()
    tracemalloc.start()
    try:
        for cell in curve:
            run_trial(replace(cell, seed=trial_seed(0, cell, 0)), False, draw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    readings = len(draw.paths.head(curve[-1].m).points)
    assert [c.m for c in curve] == [662, 882, 1764, 3528] and readings == 267291
    assert peak < 90 * readings


# eigvalsh is backward stable: each computed eigenvalue of a symmetric G is
# within a small multiple of eps * ||G|| of the exact one. Over every scheme,
# awareness and trial below the largest drop of lambda_min measured here was
# 0; the bound allows 8 * (2b+1)^2 eps * lambda_max per step.
LOEWNER_EPS = 8 * 25 * np.finfo(float).eps


@pytest.mark.parametrize("scheme, aware", CASES, ids=IDS)
def test_lambda_min_does_not_fall_along_a_curve(scheme, aware):
    # Each cell's Gram is the last one's plus the new paths' rows, so it grows
    # in Loewner order and its smallest eigenvalue cannot fall.
    spec = SweepSpec(schemes=[scheme], b_values=[2], m_multiples=[1.0, 1.5, 2.0, 4.0, 12.0],
                     iterations=4, aware=[aware], base_seed=2)
    (curve,) = spec.curves().values()
    for iteration in range(spec.iterations):
        draw = Draw()
        spectra = [_trial_operator(replace(c, seed=trial_seed(2, c, iteration)), draw)[1].spectrum
                   for c in curve]
        for small, large in zip(spectra, spectra[1:]):
            assert large[0] >= small[0] - LOEWNER_EPS * large[-1]


def _log_kappas(cells: list, seeds) -> dict:
    """log kappa per cell over the trials of each seed, with one draw per trial."""
    logs = {c.m: [] for c in cells}
    for seed in seeds:
        draw = Draw()
        for c in cells:
            logs[c.m].append(math.log(run_trial(replace(c, seed=seed(c)), False, draw)[0]))
    return {m: np.array(v) for m, v in logs.items()}


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """The two-sample Kolmogorov-Smirnov statistic D."""
    x = np.concatenate([a, b])
    cdf = [np.searchsorted(np.sort(v), x, "right") / len(v) for v in (a, b)]
    return float(np.abs(cdf[0] - cdf[1]).max())


TRIALS = 400
# Tolerances from a measured spread: at base seeds 0-4, 30 comparisons of 400
# nested against 400 independent trials gave |z| <= 2.24 for the mean log
# kappa and D <= 0.087. |z| <= 4 is 4 standard errors; D <= 0.138 is the
# two-sample KS critical value at alpha = 0.001, 1.949 sqrt(2 / 400).
MAX_Z = 4.0
MAX_KS = 0.138


@pytest.mark.parametrize("scheme", [Scheme.LINE_BOUNDARY_AVG, Scheme.BEE_HIVE,
                                    Scheme.LINE_BOUNDARY_POINTS])
def test_nested_cells_have_the_distribution_of_independent_draws(scheme):
    # b = 3, m = 1.5n and 2n, condition only. Nested: the two cells of each
    # trial share its draw. Independent: each cell's trials have their own
    # seeds, as if no other cell existed.
    spec = SweepSpec(schemes=[scheme], b_values=[3], m_multiples=[1.5, 2.0], iterations=TRIALS,
                     base_seed=0, reconstruct=False)
    (curve,) = spec.curves().values()
    nested = _log_kappas(curve, [lambda c, i=i: trial_seed(0, c, i) for i in range(TRIALS)])
    for cell in curve:
        alone = _log_kappas([cell], [lambda c, i=i: trial_seed(1 + c.m, c, i)
                                     for i in range(TRIALS)])[cell.m]
        a = nested[cell.m]
        z = (a.mean() - alone.mean()) / math.sqrt((a.var(ddof=1) + alone.var(ddof=1)) / TRIALS)
        assert abs(z) <= MAX_Z, (cell.m, z)
        assert _ks_distance(a, alone) <= MAX_KS, cell.m
