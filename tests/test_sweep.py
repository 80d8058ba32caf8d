import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import pathfield
from pathfield import sweep
from pathfield.paths import ConfigurationError, Scheme, SchemeConfig, generate_paths
from pathfield.sweep import (
    CellResult,
    SweepResult,
    SweepSpec,
    check_bound_trend,
    rank_schemes,
    run_sweep,
    run_trial,
    trial_seed,
)


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
    s1 = trial_seed(0, Scheme.SCATTERED, 3, 100, 0.05, True, 0)
    s2 = trial_seed(0, Scheme.SCATTERED, 3, 100, 0.05, True, 0)
    s3 = trial_seed(0, Scheme.SCATTERED, 3, 100, 0.05, True, 1)
    s4 = trial_seed(1, Scheme.SCATTERED, 3, 100, 0.05, True, 0)
    assert s1 == s2
    assert len({s1, s3, s4}) == 3


# --------------------------------------------------------------- validation

def test_spec_rejects_m_below_n():
    with pytest.raises(ConfigurationError, match="multiples"):
        quick_spec(m_multiples=[0.5])


def test_spec_rejects_empty_lists():
    with pytest.raises(ConfigurationError):
        quick_spec(schemes=[])
    with pytest.raises(ConfigurationError):
        quick_spec(gamma_values=[])


def test_spec_cells_are_the_grid_in_run_order():
    spec = quick_spec(b_values=[1, 2], m_multiples=[1.5, 2.0], aware=[True, False],
                      schemes=[Scheme.BEE_HIVE])
    assert spec.cells() == [(Scheme.BEE_HIVE, b, m, 0.05, aware)
                            for b, ms in ((1, (14, 18)), (2, (38, 50)))
                            for m in ms for aware in (True, False)]
    assert [(c.b, c.m, c.aware) for c in run_sweep(spec).cells] == \
        [(b, m, aware) for _, b, m, _, aware in spec.cells()]


def test_spec_rejects_unaware_for_unsupported_scheme():
    with pytest.raises(ConfigurationError, match="unaware"):
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


@pytest.mark.parametrize("reconstruct", [True, False])
def test_trial_runs_one_gram_eigensolve(monkeypatch, reconstruct):
    # The condition number and the solve's singularity check share one
    # spectrum; the solve itself factorises by LU, not by eigendecomposition.
    calls = []

    def spy(name):
        real = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=74, b=3, gamma=0.05,
                          noise_sigma=0.01, seed=3)
    cond, rel_err = run_trial(config, reconstruct=reconstruct)
    assert math.isfinite(cond) and math.isfinite(rel_err) == reconstruct
    assert calls == ["eigvalsh"]
