import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

import pathfield
from pathfield import sweep
from pathfield.field import product_map
from pathfield.paths import (CHUNK, ConfigurationError, Draw, Scheme, SchemeConfig,
                             check_cell_bytes, generate_paths)
from pathfield.sensing import CORRECTION_KAPPA, CORRECTION_STEPS
from pathfield.sweep import (
    CellResult,
    SweepResult,
    SweepSpec,
    rank_schemes,
    run_sweep,
    run_trial,
    trial_seed,
)
from bound_trend import check_bound_trend


def quick_spec(**kwargs):
    defaults = dict(schemes=[Scheme.SCATTERED], b_values=[1], m_multiples=[1.5],
                    gamma_values=[0.05], iterations=1, base_seed=0)
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def synthetic_result(values_by_scheme, b=1, gamma=0.05, aware=True):
    cells = []
    for scheme, pairs in values_by_scheme.items():
        for m, cond in pairs:
            cells.append(CellResult(scheme=scheme, b=b, m=m, gamma=gamma, aware=aware,
                                    mean_cond=cond, std_cond=0.1, mean_rel_err=0.0,
                                    excluded=0))
    return SweepResult(cells=cells)


# ------------------------------------------------------------------ running

def test_single_cell_single_iteration():
    result = run_sweep(quick_spec())
    assert len(result.cells) == 1
    cell = result.cells[0]
    assert cell.scheme is Scheme.SCATTERED
    assert cell.m == 14  # round(1.5 * 9)
    assert cell.mean_cond >= 1.0
    assert cell.std_cond == 0.0
    assert cell.excluded == 0


def test_record_count_is_full_cross_product():
    spec = quick_spec(schemes=[Scheme.SCATTERED, Scheme.BEE_HIVE],
                      m_multiples=[1.5, 2.0], gamma_values=[0.05, 0.1], iterations=2)
    result = run_sweep(spec)
    assert len(result.cells) == 2 * 1 * 2 * 2 * 1


def test_sweep_reproducible():
    spec = quick_spec(schemes=[Scheme.LINE_INNER_AVG], iterations=3)
    first = run_sweep(spec).to_csv_text()
    second = run_sweep(spec).to_csv_text()
    assert first == second


def test_cell_values_independent_of_spec_ordering():
    spec_a = quick_spec(schemes=[Scheme.SCATTERED, Scheme.BEE_HIVE],
                        m_multiples=[1.5, 2.0], iterations=2)
    spec_b = quick_spec(schemes=[Scheme.BEE_HIVE, Scheme.SCATTERED],
                        m_multiples=[2.0, 1.5], iterations=2)

    def keyed(result):
        return {(c.scheme, c.b, c.m, c.gamma, c.aware):
                (c.mean_cond, c.std_cond, c.mean_rel_err, c.excluded)
                for c in result.cells}

    assert keyed(run_sweep(spec_a)) == keyed(run_sweep(spec_b))


def test_all_mean_conds_at_least_one():
    spec = quick_spec(schemes=[Scheme.SCATTERED, Scheme.DIRECTED_INNER, Scheme.RANDOM_WALK],
                      m_multiples=[1.5, 4.0], iterations=3, gamma_values=[0.1])
    for cell in run_sweep(spec).cells:
        assert math.isnan(cell.mean_cond) or cell.mean_cond >= 1.0


def test_noise_propagates_to_rel_err():
    noiseless = run_sweep(quick_spec(iterations=2)).cells[0]
    noisy = run_sweep(quick_spec(iterations=2, noise_sigma=0.1)).cells[0]
    assert noiseless.mean_rel_err < 1e-8
    assert noisy.mean_rel_err > 1e-4


def test_singular_solves_are_excluded(monkeypatch):
    # A trial solves only after a finite kappa, and the solve checks the same
    # spectrum, so no singular solve is left to catch. At gamma = 1e300 every
    # boundary line keeps its boundary start alone (but with probability
    # 2^-53), and rows at boundary points alone are rank deficient.
    solved = []
    real = sweep.reconstruct_and_score

    def spy(fld, X, g):
        solved.append(X.shape[0])
        return real(fld, X, g)

    monkeypatch.setattr("pathfield.sweep.reconstruct_and_score", spy)
    spec = quick_spec(schemes=[Scheme.SCATTERED, Scheme.LINE_BOUNDARY_POINTS],
                      gamma_values=[1e300], iterations=3)
    scattered, lines = run_sweep(spec).cells
    assert lines.excluded == 3
    assert math.isnan(lines.mean_cond) and math.isnan(lines.std_cond)
    assert math.isnan(lines.mean_rel_err)
    assert scattered.excluded == 0 and math.isfinite(scattered.mean_rel_err)
    assert solved == [scattered.m] * 3


def test_reconstruct_flag_skips_errors():
    cell = run_sweep(quick_spec(reconstruct=False)).cells[0]
    assert math.isnan(cell.mean_rel_err)
    assert cell.mean_cond >= 1.0


def test_trial_seed_is_stable_and_distinct():
    # The cells of one curve share each iteration's seed: m is not in its key.
    cell = SchemeConfig(scheme=Scheme.SCATTERED, m=100, b=3, gamma=0.05)
    s1 = trial_seed(0, cell, 0)
    s2 = trial_seed(0, replace(cell, m=392, p=7, noise_sigma=0.5, seed=9), 0)
    s3 = trial_seed(0, cell, 1)
    s4 = trial_seed(1, cell, 0)
    assert s1 == s2
    assert len({s1, s3, s4}) == 3
    assert len({trial_seed(0, replace(cell, **change), 0) for change in (
        {}, dict(scheme=Scheme.BEE_HIVE), dict(b=2), dict(gamma=0.1))}) == 4
    # Every sweep.csv rests on these seeds, so they are pinned by value.
    unaware = SchemeConfig(scheme=Scheme.BEE_HIVE, m=3528, b=10, gamma=0.02,
                           location_aware=False)
    assert s1 == 8035927220434791528
    assert trial_seed(7, unaware, 49) == 6461852421054750369


def test_each_trial_runs_its_cell_with_its_seed(monkeypatch):
    # One (curve, iteration) at a time: its cells in increasing m, on one
    # draw, which no other (curve, iteration) shares.
    spec = quick_spec(schemes=[Scheme.LINE_INNER_AVG], m_multiples=[2.0, 1.5], iterations=2,
                      base_seed=5, p=7, noise_sigma=0.01, aware=[False], reconstruct=False)
    cells = spec.cells()
    assert [(c.m, c.p, c.noise_sigma, c.location_aware, c.seed) for c in cells] == \
        [(18, 7, 0.01, False, 0), (14, 7, 0.01, False, 0)]
    calls = []

    def run_trial(config, reconstruct, draw):
        calls.append((config, reconstruct, draw))
        return 1.0, 0.0

    monkeypatch.setattr(sweep, "run_trial", run_trial)
    run_sweep(spec)
    assert [call[:2] for call in calls] == [(replace(cell, seed=trial_seed(5, cell, i)), False)
                                            for i in range(2) for cell in cells[::-1]]
    assert all(first[2] is second[2] for first, second in zip(calls[::2], calls[1::2]))
    assert calls[0][2] is not calls[2][2]


# --------------------------------------------------------------- validation

def test_a_built_spec_is_frozen():
    # Assigned after construction, a setting would skip every check: on a
    # mutable spec, iterations = 0 wrote a row of nans with excluded = 0.
    # replace() builds a new spec, and so runs them.
    spec = quick_spec()
    with pytest.raises(FrozenInstanceError):
        spec.iterations = 0
    with pytest.raises(ConfigurationError, match="^iterations must be an integer >= 1$"):
        replace(spec, iterations=0)
    assert replace(spec, schemes=["scattered"]).schemes == [Scheme.SCATTERED]


def test_spec_rejects_m_below_n():
    with pytest.raises(ConfigurationError, match="multiples"):
        quick_spec(m_multiples=[0.5])


def test_spec_rejects_non_finite_values():
    # The spec rejects these itself, before any trial runs or any m is
    # rounded from multiple * n; no config parser needs to catch them first.
    with pytest.raises(ConfigurationError, match="gamma values must be a non-empty list of finite"):
        quick_spec(gamma_values=[math.inf])
    with pytest.raises(ConfigurationError, match="noise_sigma must be a finite number"):
        quick_spec(noise_sigma=math.inf)
    with pytest.raises(ConfigurationError, match="m multiples must be a non-empty list of finite"):
        quick_spec(m_multiples=[math.inf])


@pytest.mark.parametrize("setting", [
    dict(b_values=[True]), dict(b_values=[1.5]), dict(iterations=2.5), dict(iterations=True),
    dict(p=2.5), dict(p=True), dict(base_seed=1.5), dict(base_seed=True)], ids=repr)
def test_spec_integer_settings_refuse_floats_and_bools(setting):
    # b = True would reach the CSV as "True", which from_csv_text refuses; a
    # float would fail deep inside numpy with a TypeError, or pass silently.
    with pytest.raises(ConfigurationError, match=r"\b(an integer|integers)\b"):
        quick_spec(**setting)


MULTIPLES = ("m multiples must be a non-empty list of finite numbers >= 1 "
             "(m >= n keeps the system solvable)")
GAMMAS = "gamma values must be a non-empty list of finite numbers > 0"
AWARE = "awareness flags must be a non-empty list of booleans"
SIGMA = "noise_sigma must be a finite number >= 0"


@pytest.mark.parametrize("setting, message", [
    (dict(reconstruct="false"), "reconstruct must be a boolean"),
    (dict(aware=["yes"]), AWARE),
    (dict(m_multiples=[True]), MULTIPLES),
    (dict(gamma_values=[True]), GAMMAS),
    (dict(noise_sigma=True), SIGMA),
    (dict(m_multiples=["2"]), MULTIPLES),
    (dict(gamma_values=["0.1"]), GAMMAS),
    (dict(noise_sigma="0.1"), SIGMA),
    (dict(schemes=["foo"]), "unknown scheme 'foo'; valid schemes: scattered, "
                            "line_boundary_points, line_boundary_avg, line_inner_avg, "
                            "random_walk, directed_boundary, directed_inner, bee_hive"),
    (dict(schemes="scattered"), "schemes must be a non-empty list of schemes"),
    (dict(b_values=3), "b values must be a non-empty list of integers >= 0"),
    (dict(aware=True), AWARE),
    pytest.param(dict(gamma_values=[10 ** 400]), GAMMAS, id="{'gamma_values': [10 ** 400]}"),
    pytest.param(dict(noise_sigma=10 ** 400), SIGMA, id="{'noise_sigma': 10 ** 400}"),
    pytest.param(dict(m_multiples=[2 ** 1024]), MULTIPLES, id="{'m_multiples': [2 ** 1024]}"),
    pytest.param(dict(m_multiples=[10 ** 308]), "m multiple 1e+308 times n at b=1 is not finite",
                 id="{'m_multiples': [10 ** 308]}")], ids=repr)
def test_spec_refuses_settings_of_the_wrong_type(setting, message):
    # Unchecked, each would be read as its truth value or as 1:
    # reconstruct="false" would run the solve, aware=["yes"] would write true,
    # and a True multiple, gamma or sigma would run as 1; a string multiple,
    # gamma or sigma would fail its range test with a TypeError, and so would
    # a scalar where a list belongs. The config parsers never produce these,
    # so only library callers can pass them; the ints beyond the float range
    # raised an OverflowError. 10 ** 308 is inside the range, but its product
    # with n is not.
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        quick_spec(**setting)


def test_spec_type_tests_follow_the_value_tests():
    # Numpy bools are bools.
    spec = quick_spec(aware=[np.True_], reconstruct=np.False_)
    assert run_sweep(spec).to_csv_text() == run_sweep(quick_spec(reconstruct=False)).to_csv_text()


def test_spec_accepts_numpy_integers():
    spec = quick_spec(b_values=[np.int64(1)], iterations=np.int64(2), p=np.int64(4),
                      base_seed=np.int64(3))
    plain = quick_spec(b_values=[1], iterations=2, p=4, base_seed=3)
    assert run_sweep(spec).to_csv_text() == run_sweep(plain).to_csv_text()


def test_spec_rejects_a_cell_over_the_byte_budget(monkeypatch):
    # (scheme, b, multiple, budget): the largest array the cell builds takes
    # one byte more than `paths.CELL_BYTES`, the one budget. Points are drawn
    # in whole chunks of CHUNK = 256 paths: 4096 B of scattered points, 8192 B
    # of their phasors. A point scheme builds no mean rows, so scattered at
    # b = 3, m = 98 is judged by its Gram, 8 * 49 * 49 B, not by 8 * 98 * 49 B
    # of rows. Directed walks with p = 2 at b = 3, m = 98 draw 512 points, and
    # their mean rows, 8 * 98 * 49 B, are the largest array; at m = n = 49 the
    # Gram and the rows tie, and the Gram is named first. b = 0, m = 2: the
    # points' phasors 8192 B, twice the points' own 4096 B.
    for scheme, b, mult, budget, what in (
            (Scheme.SCATTERED, 3, 2.0, 19207, "19208 bytes for its n x n Gram"),
            (Scheme.DIRECTED_INNER, 3, 2.0, 38415, "38416 bytes for its m x n mean rows"),
            (Scheme.DIRECTED_INNER, 3, 1.0, 19207, "19208 bytes for its n x n Gram"),
            (Scheme.SCATTERED, 0, 2.0, 8191, "8192 bytes for its sample point phasors")):
        spec = dict(schemes=[scheme], b_values=[b], m_multiples=[mult], p=2)
        monkeypatch.setattr("pathfield.paths.CELL_BYTES", budget + 1)
        quick_spec(**spec)
        monkeypatch.setattr("pathfield.paths.CELL_BYTES", budget)
        with pytest.raises(ConfigurationError,
                           match=f"^cell \\({scheme.value}, b={b}, .*{what}, over the "
                                 f"{budget}-byte budget$"):
            quick_spec(**spec)
    # `pathfield paths` builds no sensing, so it counts the points alone: one
    # chunk fits, and one path more draws a second.
    check_cell_bytes("paths", SchemeConfig(scheme=Scheme.SCATTERED, m=CHUNK, b=0), sensing=False)
    with pytest.raises(ConfigurationError, match="^paths needs 8192 bytes for its sample points"):
        check_cell_bytes("paths", SchemeConfig(scheme=Scheme.SCATTERED, m=CHUNK + 1, b=0),
                         sensing=False)


def test_spec_admits_a_point_cell_whose_mean_rows_it_never_builds():
    # Scattered at b = 40, m = 8n: its Gram takes 344 MB, inside the 1 GiB
    # budget; the m x n mean rows an averaging scheme would build take 2.75 GB.
    SweepSpec(schemes=[Scheme.SCATTERED], b_values=[40], m_multiples=[8.0])
    with pytest.raises(ConfigurationError, match="2754990144 bytes for its m x n mean rows"):
        SweepSpec(schemes=[Scheme.LINE_BOUNDARY_AVG], b_values=[40], m_multiples=[8.0])
    # Unaware, a bee hive's operator is one point row per hive: at b = 10,
    # m = 700n its largest array is the 247 MB of its 25-point loops' phasors.
    # Aware, the same cell builds m x n mean rows, 1.09 GB.
    hives = dict(schemes=[Scheme.BEE_HIVE], b_values=[10], m_multiples=[700.0])
    SweepSpec(aware=[False], **hives)
    with pytest.raises(ConfigurationError, match="1089093600 bytes for its m x n mean rows"):
        SweepSpec(aware=[True], **hives)


CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=[path.name for path in CONFIGS])
def test_full_config_fits_the_byte_budget(path):
    # Every shipped config parses and fits; full.cfg's largest cell is b = 10, m = 8n.
    spec = SweepSpec.from_file(path)
    if path.name == "full.cfg":
        assert max(cell.m for cell in spec.cells() if cell.b == 10) == 8 * 441


def test_spec_rejects_empty_lists():
    with pytest.raises(ConfigurationError):
        quick_spec(schemes=[])
    with pytest.raises(ConfigurationError):
        quick_spec(gamma_values=[])


def test_spec_cells_are_the_grid_in_run_order():
    spec = quick_spec(b_values=[1, 2], m_multiples=[1.5, 2.0], aware=[True, False],
                      schemes=[Scheme.BEE_HIVE])
    assert spec.cells() == [SchemeConfig(scheme=Scheme.BEE_HIVE, m=m, b=b, gamma=0.05,
                                         location_aware=aware)
                            for b, ms in ((1, (14, 18)), (2, (38, 50)))
                            for m in ms for aware in (True, False)]
    assert [(c.b, c.m, c.aware) for c in run_sweep(spec).cells] == \
        [(cell.b, cell.m, cell.location_aware) for cell in spec.cells()]


def test_spec_rejects_unaware_for_unsupported_scheme():
    with pytest.raises(ConfigurationError,
                       match="^scheme random_walk has no location-unaware variant; supported: "):
        quick_spec(schemes=[Scheme.RANDOM_WALK], aware=[True, False])


def test_spec_accepts_unaware_for_supported_schemes():
    spec = quick_spec(schemes=[Scheme.LINE_BOUNDARY_AVG, Scheme.BEE_HIVE],
                      aware=[True, False], iterations=1)
    result = run_sweep(spec)
    assert len(result.cells) == 4


# ------------------------------------------------------------- config files

CONFIG_TEXT = """
# comment line
schemes = scattered, bee_hive
b = 1, 2
m_multiples = 1.5, 4
gamma = 0.05   # trailing comment
iterations = 7
seed = 11
noise_sigma = 0.01
aware = true
p = 9
reconstruct = false
"""


def test_config_parsing(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(CONFIG_TEXT)
    spec = SweepSpec.from_file(cfg)
    assert spec.schemes == [Scheme.SCATTERED, Scheme.BEE_HIVE]
    assert spec.b_values == [1, 2]
    assert spec.m_multiples == [1.5, 4.0]
    assert spec.gamma_values == [0.05]
    assert spec.iterations == 7
    assert spec.base_seed == 11
    assert spec.noise_sigma == 0.01
    assert spec.aware == [True]
    assert spec.p == 9
    assert spec.reconstruct is False


def test_config_scheme_all():
    spec = SweepSpec.from_text("schemes = all\n")
    assert spec.schemes == list(Scheme)


def test_config_unknown_key_names_line():
    with pytest.raises(ConfigurationError, match="line 2"):
        SweepSpec.from_text("iterations = 3\nbogus = 1\n")


def test_gamma_spelling_does_not_change_the_trials():
    # A cell's seeds hash gamma's float value: an int, a parsed string and a
    # numpy scalar give the trials of the equal Python float.
    text = "schemes = scattered\nb = 1\nm_multiples = 1.5\niterations = 2\nseed = 0\n"
    for spelling, value in (("1", 1), ("0.05", np.array([0.05])[0])):
        given = quick_spec(gamma_values=[value], iterations=2)
        parsed = SweepSpec.from_text(text + f"gamma = {spelling}\n")
        assert run_sweep(given).to_csv_text() == run_sweep(parsed).to_csv_text(), spelling


def test_config_bad_value_names_line():
    with pytest.raises(ConfigurationError, match="line 1"):
        SweepSpec.from_text("iterations = lots\n")
    with pytest.raises(ConfigurationError, match="^--b: "):
        SweepSpec.from_text("iterations = 3\nb = 1\n", overrides=[("--b", "b = x")])


def test_config_missing_equals_rejected():
    with pytest.raises(ConfigurationError, match="key = value"):
        SweepSpec.from_text("just some words\n")


# ------------------------------------------------------------------- CSV IO

def test_result_csv_roundtrip():
    spec = quick_spec(schemes=[Scheme.BEE_HIVE], iterations=2, m_multiples=[1.5, 2.0])
    result = run_sweep(spec)
    text = result.to_csv_text()
    loaded = SweepResult.from_csv_text(text)
    assert len(loaded.cells) == len(result.cells)
    for a, b in zip(loaded.cells, result.cells):
        assert (a.scheme, a.b, a.m, a.gamma, a.aware) == (b.scheme, b.b, b.m, b.gamma, b.aware)
        assert a.mean_cond == b.mean_cond
        assert a.std_cond == b.std_cond


def test_result_csv_schema_is_cell_result():
    cells = [CellResult(scheme=Scheme.BEE_HIVE, b=2, m=38, gamma=0.1, aware=False,
                        mean_cond=float("nan"), std_cond=float("nan"),
                        mean_rel_err=float("nan"), excluded=3),
             CellResult(scheme=Scheme.SCATTERED, b=1, m=14, gamma=0.05, aware=True,
                        mean_cond=2.5, std_cond=0.25, mean_rel_err=0.125, excluded=0)]
    text = SweepResult(cells=cells).to_csv_text()
    assert text == ("scheme,b,m,gamma,aware,mean_cond,std_cond,mean_rel_err,excluded\n"
                    "bee_hive,2,38,0.1,false,nan,nan,nan,3\n"
                    "scattered,1,14,0.05,true,2.5,0.25,0.125,0\n")
    loaded = SweepResult.from_csv_text(text).cells
    assert repr(loaded) == repr(cells)
    assert [type(getattr(loaded[0], f.name)) for f in fields(CellResult)] == \
        [Scheme, int, int, float, bool, float, float, float, int]


def test_a_result_row_is_labelled_as_its_cell():
    # Messages label a cell and its result row with one text, str(cell).
    spec = quick_spec(schemes=[Scheme.LINE_BOUNDARY_AVG, Scheme.BEE_HIVE], gamma_values=[0.5],
                      m_multiples=[1.5, 2.0], aware=[True, False], reconstruct=False)
    result = run_sweep(spec)
    assert [str(c) for c in result.cells] == [str(cell) for cell in spec.cells()]
    assert str(result.cells[-1]) == "cell (bee_hive, b=1, m=18, gamma=0.5, unaware)"


def test_curves_group_by_key_in_order_of_appearance_sorted_by_m():
    def cell(scheme, m, aware=True, b=1, gamma=0.05):
        return CellResult(scheme=scheme, b=b, m=m, gamma=gamma, aware=aware,
                          mean_cond=1.0, std_cond=0.0, mean_rel_err=0.0, excluded=0)
    cells = [cell(Scheme.BEE_HIVE, 36), cell(Scheme.SCATTERED, 18),
             cell(Scheme.BEE_HIVE, 18), cell(Scheme.BEE_HIVE, 18, aware=False),
             cell(Scheme.BEE_HIVE, 9), cell(Scheme.BEE_HIVE, 50, b=2),
             cell(Scheme.BEE_HIVE, 27, gamma=0.1)]
    curves = SweepResult(cells=cells).curves()
    assert list(curves) == [(Scheme.BEE_HIVE, 1, 0.05, True), (Scheme.SCATTERED, 1, 0.05, True),
                            (Scheme.BEE_HIVE, 1, 0.05, False), (Scheme.BEE_HIVE, 2, 0.05, True),
                            (Scheme.BEE_HIVE, 1, 0.1, True)]
    assert [c.m for c in curves[(Scheme.BEE_HIVE, 1, 0.05, True)]] == [9, 18, 36]
    assert sum(len(group) for group in curves.values()) == len(cells)


def test_result_csv_rejects_bad_header():
    with pytest.raises(ValueError, match="line 1"):
        SweepResult.from_csv_text("foo,bar\n1,2\n")


def test_result_csv_rejects_empty_body():
    header = "scheme,b,m,gamma,aware,mean_cond,std_cond,mean_rel_err,excluded\n"
    with pytest.raises(ValueError, match="no result rows"):
        SweepResult.from_csv_text(header)


def test_result_csv_rejects_a_repeated_cell():
    header = "scheme,b,m,gamma,aware,mean_cond,std_cond,mean_rel_err,excluded\n"
    row = "scattered,1,14,0.05,true,2.0,0.1,0.0,0\n"
    other = "scattered,1,14,0.05,false,2.0,0.1,0.0,0\n"
    assert len(SweepResult.from_csv_text(header + row + other).cells) == 2
    with pytest.raises(ValueError, match="line 4: repeats the cell of line 2"):
        SweepResult.from_csv_text(header + row + other + row)


def test_result_csv_names_offending_line():
    header = "scheme,b,m,gamma,aware,mean_cond,std_cond,mean_rel_err,excluded\n"
    bad = header + "scattered,1,14,0.05,true,2.0,0.1,0.0,0\nscattered,1,oops,0.05,true,2,0.1,0,0\n"
    with pytest.raises(ValueError, match="line 3"):
        SweepResult.from_csv_text(bad)


# ------------------------------------------------------------------- trends

def test_trend_constant_series_is_monotone():
    result = synthetic_result({Scheme.SCATTERED: [(9, 5.0), (18, 5.0), (36, 5.0)]})
    report = check_bound_trend(result)
    assert len(report) == 1
    group = report[0]
    assert group.monotone_ok
    assert group.all_ge_one


def test_trend_flags_large_upward_step():
    result = synthetic_result({Scheme.SCATTERED: [(9, 5.0), (18, 9.0), (36, 4.0)]})
    group = check_bound_trend(result)[0]
    assert not group.monotone_ok
    assert group.violations == [0]


def test_trend_tolerates_step_within_one_std():
    cells = [CellResult(scheme=Scheme.SCATTERED, b=1, m=m, gamma=0.05, aware=True,
                        mean_cond=cond, std_cond=1.0, mean_rel_err=0.0, excluded=0)
             for m, cond in [(9, 5.0), (18, 5.5), (36, 4.0)]]
    group = check_bound_trend(SweepResult(cells=cells))[0]
    assert group.monotone_ok


def test_trend_skips_short_groups():
    result = synthetic_result({Scheme.SCATTERED: [(9, 5.0), (18, 4.0)]})
    assert check_bound_trend(result) == []


def test_import_does_not_load_scipy():
    code = "import sys, pathfield; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(pathfield.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


# ------------------------------------------------------------------ ranking

def full_synthetic_ranking():
    order = [
        (Scheme.LINE_BOUNDARY_POINTS, 2.0), (Scheme.SCATTERED, 3.5),
        (Scheme.BEE_HIVE, 3.6), (Scheme.DIRECTED_BOUNDARY, 7.4),
        (Scheme.DIRECTED_INNER, 10.4), (Scheme.LINE_INNER_AVG, 11.3),
        (Scheme.LINE_BOUNDARY_AVG, 11.4), (Scheme.RANDOM_WALK, 390.0),
    ]
    return synthetic_result({s: [(196, c)] for s, c in order}), order


def test_rank_schemes_sorts_ascending():
    result, order = full_synthetic_ranking()
    ranking = rank_schemes(result, m=196, gamma=0.05)
    assert ranking == sorted(order, key=lambda pair: pair[1])


def test_rank_schemes_missing_cell_errors():
    result, _ = full_synthetic_ranking()
    result.cells = [c for c in result.cells if c.scheme is not Scheme.BEE_HIVE]
    with pytest.raises(ValueError, match="bee_hive"):
        rank_schemes(result, m=196, gamma=0.05)


def test_rank_schemes_nan_mean_ranks_last():
    means = [3.0, float("nan"), 1.0, 2.0, 5.0, 4.0, 7.0, 6.0]
    result = synthetic_result({s: [(196, c)] for s, c in zip(Scheme, means)})
    ranking = rank_schemes(result, m=196, gamma=0.05)
    conds = [cond for _, cond in ranking]
    assert conds[:-1] == sorted(c for c in means if not math.isnan(c))
    assert ranking[-1][0] is list(Scheme)[1] and math.isnan(conds[-1])


def test_rank_schemes_ambiguous_without_b():
    result, _ = full_synthetic_ranking()
    extra, _ = full_synthetic_ranking()
    for c in extra.cells:
        c.b = 2
    result.cells += extra.cells
    with pytest.raises(ValueError, match="ambiguous"):
        rank_schemes(result, m=196, gamma=0.05)
    ranking = rank_schemes(result, m=196, gamma=0.05, b=2)
    assert len(ranking) == 8


def test_point_trial_never_allocates_the_dense_matrix():
    # A b=10 line-points trial has ~26k rows: its dense matrix would take
    # rows x n x 16 B = ~180 MB. The per-axis tables and the n x n Gram stay
    # far below that, through measurement and reconstruction.
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=882, b=10, gamma=0.05,
                          noise_sigma=0.01, seed=5)
    rows = sum(len(sp) for sp in generate_paths(config))
    tracemalloc.start()
    try:
        cond, rel_err = run_trial(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(cond) and rel_err < 1e-3
    assert peak < rows * config.n * 16 / 2


# (scheme, aware, curve): a curve case runs one (curve, iteration) of 1.5n, 2n and 8n.
EXP_CASES = [(Scheme.LINE_BOUNDARY_POINTS, True, False), (Scheme.LINE_BOUNDARY_AVG, True, False),
             (Scheme.LINE_BOUNDARY_AVG, False, False), (Scheme.LINE_BOUNDARY_AVG, False, True),
             (Scheme.LINE_BOUNDARY_POINTS, False, True), (Scheme.BEE_HIVE, False, True),
             (Scheme.LINE_BOUNDARY_AVG, True, True)]


@pytest.mark.parametrize("scheme, aware, curve", EXP_CASES,
                         ids=[f"{s.value}-{a}" + "-curve" * c for s, a, c in EXP_CASES])
def test_trial_takes_one_exponential_per_coordinate(monkeypatch, scheme, aware, curve):
    # Every table of a trial is built from exp(j 2 pi x) and exp(j 2 pi y) of
    # its P sample points, each computed once for the build, the readings and
    # the solve; an unaware build adds those of its L stand-in locations. The
    # cells of one curve and trial are heads of one draw of its largest cell,
    # so the first cell takes those of the largest cell's P and L, and the
    # later cells none.
    if curve:
        spec = SweepSpec(schemes=[scheme], b_values=[3], m_multiples=[1.5, 2.0, 8.0],
                         iterations=1, noise_sigma=0.01, aware=[aware])
        (cells,) = spec.curves().values()
        cells = [replace(cell, seed=trial_seed(0, cell, 0)) for cell in cells]
    else:
        cells = [SchemeConfig(scheme=scheme, m=74, b=3, gamma=0.05, noise_sigma=0.01,
                              location_aware=aware, seed=3)]
    config = cells[-1]
    rng = np.random.default_rng(config.seed)  # run_trial's draws: field, then paths
    sweep.generate_random_field(config.b, rng)
    paths = generate_paths(config, rng)
    points = len(paths.points)
    # One hive per loop, or one equispaced stand-in per reading.
    stand_ins = 0 if aware else len(paths) if scheme is Scheme.BEE_HIVE else points
    product_map(config.b)  # a cached constant of b, not of the points
    exponentiated = []
    real_exp = np.exp

    def exp(x, *args, **kwargs):
        exponentiated.append(np.size(x))
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", exp)
    draw, taken = Draw(config), []
    for cell in cells:
        cond, rel_err = run_trial(cell, True, draw)
        assert math.isfinite(cond) and math.isfinite(rel_err)
        taken.append(sum(exponentiated) - sum(taken))
    assert taken == [2 * points + 2 * stand_ins] + [0] * (len(cells) - 1)


@pytest.mark.parametrize("reconstruct", [True, False])
def test_trial_runs_one_gram_eigensolve(monkeypatch, reconstruct):
    # The condition number and the solve's singularity check share one
    # spectrum; the solve itself factorises by LU, not by eigendecomposition,
    # once and then once per correction, which only kappa > CORRECTION_KAPPA
    # takes: the line points trial (kappa 2.95) solves once, the averaging
    # trial (kappa 157) three times. All of it runs in real arithmetic.
    calls = []

    def spy(name):
        real = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls.append((name, args[0].dtype))
            return real(*args, **kwargs)
        return counted

    for name in ("eigvalsh", "eigh", "solve"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    for scheme, solves in ((Scheme.LINE_BOUNDARY_POINTS, 1), (Scheme.LINE_BOUNDARY_AVG, 3)):
        calls.clear()
        config = SchemeConfig(scheme=scheme, m=74, b=3, gamma=0.05,
                              noise_sigma=0.01, seed=3)
        cond, rel_err = run_trial(config, reconstruct=reconstruct)
        assert math.isfinite(cond) and math.isfinite(rel_err) == reconstruct
        steps = CORRECTION_STEPS if cond > CORRECTION_KAPPA else 0
        assert solves == 1 + steps
        assert [name for name, _ in calls] == ["eigvalsh"] + ["solve"] * (solves * reconstruct)
        assert all(dtype == np.float64 for _, dtype in calls)
