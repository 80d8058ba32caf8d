"""Nested m: the cells of one curve and trial share one draw of paths.

A curve is the cells of a sweep that differ only in m. Within one iteration
they share a trial seed, so a cell's paths are the first m of one draw, made
for the curve's largest cell and drawn whole at its first, and each cell
extends the operator sums the smaller cell before it left in the draw
(`paths.Draw`, its paths and `kept`).
These tests pin what that must not change: a cell's row is the same whatever
other m values the grid holds, and a nested cell's operator is bit for bit the
one its trial builds alone. They also show what it buys and what it keeps:
the Gram grows in Loewner order along a curve, and each cell's distribution of
kappa is that of independent draws.
"""

import math
import tracemalloc
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
    # The m cross ROW_BLOCK and CHUNK boundaries, and b = 3 line
    # points fill several BLOCKs of points; each nested operator is the one its
    # fresh trial builds, bit for bit, and so is its kappa. A draw handed a
    # smaller cell keeps blocks past its paths, and the build starts afresh.
    largest = SchemeConfig(scheme=scheme, m=max(ms), b=b, gamma=0.05, location_aware=aware,
                           seed=9)
    draw = Draw(largest)
    for m in ms:
        _nested_is_fresh(replace(largest, m=m), draw)


def test_a_draw_refuses_a_switch_of_awareness():
    # Same seed, aware and then unaware: the unaware cell would continue the
    # true points' sums with stand-in blocks (kappa 1.2989, against 1.3070
    # built alone) if the draw served it.
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=200, b=1, seed=3)
    draw = Draw(replace(config, m=300))
    _trial_operator(config, draw)
    with pytest.raises(ValueError, match="^a Draw serves the cells of one trial and curve$"):
        _trial_operator(replace(config, m=300, location_aware=False), draw)


def test_a_draw_refuses_an_operator_of_another_curve():
    # Seed 3's aware line points at m = 200, then its m = 300 paths from the
    # same draw built unaware: the stand-ins' sums would continue the true
    # points' (kappa 1.454866, against 1.462229 built alone). The refusal comes
    # before the build takes the kept sums out of the draw, which still serves
    # its own curve.
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=200, b=1, seed=3)
    draw = Draw(replace(config, m=300))
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
    # its kept sums and rows, the rows of seed 3's 600 paths, they would give
    # kappa 7.3990, against 7.5939 built alone. The refusal comes before the
    # build reads the draw, whose kept value stays as it was.
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_AVG, m=300, b=3, gamma=0.05, seed=3)
    draw = Draw(replace(config, m=600))
    _trial_operator(config, draw)
    kept, other = draw.kept, replace(config, m=600, seed=4)
    paths = _trial_operator(other, None)[0]
    with pytest.raises(ValueError, match="^a Draw serves the cells of one trial and curve$"):
        build_matrix(paths, other, draw)
    assert draw.kept is kept and kept.done == 256 and len(kept.rows) == 600


@pytest.mark.parametrize("drawn, other", [(600, dict(b=2, m=600)), (300, dict(m=600))],
                         ids=["another-b", "a-larger-m"])
def test_a_draw_refuses_a_cell_of_another_b_or_a_larger_m(drawn, other):
    # Seed 3's line points at b = 1, m = 300, then on the same draw a b = 2
    # cell, or an m past the draw's. The b = 2 cell would continue the b = 1
    # sums (numpy failed broadcasting (5, 5) with (9, 9) once b was not in the
    # draw's key); the larger m has no paths drawn. Both are refused, by the
    # paths and by the build of the draw's own paths, and the kept sums stay.
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=300, b=1, seed=3)
    draw = Draw(replace(config, m=drawn))
    _trial_operator(config, draw)
    kept, paths = draw.kept, draw.paths.head(config.m)
    with pytest.raises(ValueError, match="^a Draw serves the cells of one trial and curve$"):
        _trial_operator(replace(config, **other), draw)
    with pytest.raises(ValueError, match="^a Draw serves the cells of one trial and curve$"):
        build_matrix(paths, replace(config, **other), draw)
    assert draw.kept is kept and len(draw.paths) == drawn


@pytest.mark.parametrize("aware", [True, False], ids=["aware", "unaware"])
def test_a_curve_trial_makes_its_mean_rows_once(monkeypatch, aware):
    # The draw's first cell (m = 300) makes the mean rows of the draw's whole
    # set (m = 600), at the points or their stand-ins, and every cell's rows
    # are its first m, in the same memory.
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_AVG, m=300, seed=3, location_aware=aware)
    draw = Draw(replace(config, m=600))
    made = []
    real = sensing._mean_rows

    def mean_rows(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(sensing, "_mean_rows", mean_rows)
    cells = [_trial_operator(config, draw)[1]]
    (rows,) = made
    assert rows.shape == (600, config.n)
    cells += [_trial_operator(replace(config, m=m), draw)[1] for m in (450, 600)]
    assert len(made) == 1
    for X, m in zip(cells, (300, 450, 600)):
        assert X.rows.shape == (m, config.n) and np.shares_memory(X.rows, rows)
        assert X.rows.tobytes() == rows[:m].tobytes()


# Bytes per reading the unaware b = 10 line points curve below peaks at: 57.0
# measured, plus 3 B (about 0.8 MB) for numpy's own buffers and versions.
UNAWARE_PEAK = 60


def test_an_unaware_curve_peaks_below_60_bytes_per_reading():
    # Unaware line points at b = 10, gamma = 0.02, one trial from 1.5n to 8n,
    # condition only: the 8n cell has 267,291 readings. Its first cell draws
    # them all and computes their stand-in phasors at once, so the draw keeps
    # 16 B of points and one 32 B phasor per reading; while the phasors are
    # made, each reading's index and one axis of steps or starts take 8 B more.
    spec = SweepSpec(schemes=[Scheme.LINE_BOUNDARY_POINTS], b_values=[10], gamma_values=[0.02],
                     iterations=1, aware=[False], reconstruct=False)
    (curve,) = spec.curves().values()
    draw = Draw(curve[-1])
    tracemalloc.start()
    try:
        for cell in curve:
            run_trial(replace(cell, seed=trial_seed(0, cell, 0)), False, draw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    readings = len(draw.paths.points)
    assert [c.m for c in curve] == [662, 882, 1764, 3528] and readings == 267291
    assert peak < UNAWARE_PEAK * readings


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
        draw = Draw(curve[-1])
        spectra = [_trial_operator(replace(c, seed=trial_seed(2, c, iteration)), draw)[1].spectrum
                   for c in curve]
        for small, large in zip(spectra, spectra[1:]):
            assert large[0] >= small[0] - LOEWNER_EPS * large[-1]


def _log_kappas(cells: list, seeds) -> dict:
    """log kappa per cell (sorted by m) over the trials of each seed, with one
    draw per trial."""
    logs = {c.m: [] for c in cells}
    for seed in seeds:
        draw = Draw(cells[-1])
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
