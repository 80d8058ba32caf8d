import csv
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pathfield.cli import main
from pathfield.field import generate_random_field
from pathfield.paths import (CHUNK, UNAWARE_SCHEMES, ConfigurationError, Draw, Scheme,
                             SchemeConfig, generate_paths)
from pathfield.sweep import SweepSpec, trial_seed


def read_paths_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    grouped = {}
    for row in rows:
        grouped.setdefault(int(row["path_id"]), []).append(
            (float(row["x"]), float(row["y"])))
    return grouped


# -------------------------------------------------------------------- paths

def test_paths_bee_hive_loops(tmp_path):
    out = tmp_path / "out"
    rc = main(["paths", "--scheme", "bee_hive", "--m", "20", "--gamma", "0.05",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    grouped = read_paths_csv(out / "paths_bee_hive.csv")
    assert len(grouped) == 20
    for pts in grouped.values():
        assert pts[0] == pts[-1]
    assert (out / "trajectories.svg").exists()


def test_paths_scattered_single_point_records(tmp_path):
    out = tmp_path / "out"
    rc = main(["paths", "--scheme", "scattered", "--m", "100", "--out", str(out)])
    assert rc == 0
    grouped = read_paths_csv(out / "paths_scattered.csv")
    assert len(grouped) == 100
    assert all(len(pts) == 1 for pts in grouped.values())


def test_paths_same_seed_identical_bytes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["paths", "--scheme", "directed_inner", "--m", "15", "--seed", "3"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    name = "paths_directed_inner.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert (out_a / "trajectories.svg").read_bytes() == (out_b / "trajectories.svg").read_bytes()


def test_paths_all_schemes_panel_per_scheme(tmp_path):
    out = tmp_path / "out"
    rc = main(["paths", "--m", "5", "--p", "6", "--out", str(out)])
    assert rc == 0
    svg = (out / "trajectories.svg").read_text()
    for scheme in Scheme:
        assert (out / f"paths_{scheme.value}.csv").exists()
        assert f">{scheme.value}</text>" in svg


def test_paths_invalid_scheme_is_usage_error(tmp_path, capsys):
    cases = [
        (["--scheme", "zigzag"], ["zigzag", "scattered"]),  # lists the valid names
        (["--gamma", "nan"], ["gamma"]),
        (["--gamma", "inf"], ["gamma"]),
        (["--m", "0"], ["m must be"]),
        (["--p", "1"], ["p must be"]),
        (["--seed", "-1"], ["seed must be"]),
        # Over the byte budget, counted as drawn, in whole chunks of CHUNK = 256
        # paths: CHUNK W line gaps, CHUNK p walk points. numpy refuses these
        # arrays at once, so a missing check fails fast.
        (["--scheme", "line_boundary_points", "--m", "3", "--gamma", "1e-15"],
         ["cell (line_boundary_points, m=3, gamma=1e-15) needs", "bytes for its sample points"]),
        (["--scheme", "directed_inner", "--m", "1", "--p", str(10 ** 17)],
         ["cell (directed_inner, m=1, gamma=0.05) needs 409600000000000000000 bytes"]),
    ]
    out = tmp_path / "out"
    for argv, expected in cases:
        rc = main(["paths", *argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, argv
        assert all(text in err for text in expected), (argv, err)
        assert not out.exists(), argv


# -------------------------------------------------------------------- sweep

def test_sweep_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["sweep", "--scheme", "scattered", "--b", "1", "--m", "1.5,2",
               "--iters", "2", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "mean_cond" in captured.out
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "scheme,b,m,gamma,aware,mean_cond,std_cond,mean_rel_err,excluded"
    assert len(lines) == 3


def test_sweep_reproducible_byte_for_byte(tmp_path):
    args = ["sweep", "--scheme", "bee_hive,line_inner_avg", "--b", "1",
            "--m", "1.5", "--iters", "3", "--seed", "5"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()


def test_sweep_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("schemes = scattered\nb = 1\nm_multiples = 1.5\n"
                   "iterations = 5\nseed = 9\n")
    out_flag = tmp_path / "flag"
    out_direct = tmp_path / "direct"
    assert main(["sweep", "--config", str(cfg), "--iters", "2",
                 "--out", str(out_flag)]) == 0
    assert main(["sweep", "--scheme", "scattered", "--b", "1", "--m", "1.5",
                 "--iters", "2", "--seed", "9", "--out", str(out_direct)]) == 0
    assert (out_flag / "sweep.csv").read_bytes() == (out_direct / "sweep.csv").read_bytes()


def test_sweep_invalid_config_is_usage_error(tmp_path, capsys):
    # Flags and config lines go through one parser: every bad value exits 2,
    # and the message names the flag, or the file and line, it came from.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m_multiples = 0.5\n")
    zigzag = tmp_path / "zigzag.cfg"
    zigzag.write_text("b = 1\nschemes = zigzag\n")
    good = tmp_path / "good.cfg"
    good.write_text("schemes = scattered\nb = 1\niterations = 1\n")
    flag_name = tmp_path / "flag_name.cfg"  # a flag's name is not a config key
    flag_name.write_text("b = 1\nscheme = scattered\n")
    missing = tmp_path / "missing.cfg"
    cases = [
        (["--config", str(cfg)], [f"{cfg} line 1", "m multiples"]),
        (["--config", str(zigzag)], [f"{zigzag} line 2", "zigzag", "scattered", "bee_hive"]),
        (["--config", str(missing)], [str(missing)]),
        (["--config", str(flag_name)], [f"{flag_name} line 2", "unknown key 'scheme'"]),
        (["--b", "x"], ["error: --b:"]),
        (["--b", "1#2"], ["error: --b:"]),
        (["--gamma", "abc"], ["error: --gamma:"]),
        (["--gamma", "inf"], ["error: --gamma: gamma values must be a non-empty list of finite "
                              "numbers > 0"]),
        (["--m", "2,inf"], ["error: --m: m multiples must be a non-empty list of finite numbers"]),
        (["--m", "1e308", "--scheme", "scattered", "--iters", "1"],
         ["m multiple 1e+308", "b=3", "not finite"]),
        (["--m", "1.5,q"], ["error: --m:"]),
        # Over the byte budget: refused from b and m alone, before any array exists.
        # An averaging cell is judged by its mean rows, a point cell by its points.
        (["--m", "1e6", "--b", "10", "--scheme", "line_boundary_avg", "--iters", "1"],
         ["cell (line_boundary_avg, b=10, m=441000000, gamma=0.05)", "1555848000000 bytes",
          "m x n mean rows"]),
        (["--m", "1e6", "--b", "10", "--scheme", "scattered", "--iters", "1"],
         ["cell (scattered, b=10, m=441000000, gamma=0.05) needs 7056003072 bytes for its "
          "sample points, over the 1073741824-byte budget"]),
        (["--m", "1e308", "--b", "0", "--scheme", "scattered", "--iters", "1"],
         ["cell (scattered, b=0, m=1000", "bytes for its sample points"]),
        (["--m", "1e308", "--b", "0", "--scheme", "bee_hive", "--iters", "1"],
         ["cell (bee_hive, b=0, m=1000", "bytes for its m x n mean rows"]),
        (["--scheme", "line_boundary_points", "--gamma", "1e-15", "--iters", "1"],
         ["cell (line_boundary_points, b=3, m=74, gamma=1e-15) needs", "sample points"]),
        (["--scheme", "zigzag"], ["error: --scheme:", "scattered"]),
        (["--noise-sigma", "nan"], ["error: --noise-sigma:"]),
        (["--config", str(good), "--iters", "two"], ["error: --iters:"]),
        (["--iters", "0"], ["error: --iters:"]),
        (["--p", "1"], ["error: --p:"]),
        (["--noise-sigma", "-1"], ["error: --noise-sigma:"]),
        (["--scheme", "scattered,scattered"], ["repeats cell (scattered, b=3, m=74"]),
        (["--m", "2,2"], ["repeats cell (", "m=98"]),
        (["--b", "0"], ["repeats cell (", "b=0, m=2,"]),
        (["--scheme", "bee_hive", "--unaware", "--b", "0"],
         ["repeats cell (bee_hive, b=0, m=2, gamma=0.05, unaware)"]),
    ]
    out = tmp_path / "out"
    for argv, expected in cases:
        rc = main(["sweep", *argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, argv
        assert all(text in err for text in expected), (argv, err)
        assert not out.exists(), argv


def test_sweep_all_singular_cell_is_excluded_and_warned(tmp_path, capsys):
    # At gamma = 10 almost every line keeps only its boundary start point, and
    # rows at boundary points alone leave the system rank deficient.
    out = tmp_path / "out"
    rc = main(["sweep", "--scheme", "line_boundary_points", "--b", "1", "--m", "2",
               "--gamma", "10", "--iters", "3", "--no-reconstruct", "--out", str(out)])
    assert rc == 0
    (row,) = csv.DictReader((out / "sweep.csv").read_text().splitlines())
    assert row["excluded"] == "3"
    assert row["mean_cond"] == "nan"
    assert "cell (line_boundary_points, b=1, m=18, gamma=10) had only singular draws" \
        in capsys.readouterr().err


def test_sweep_random_walk_cell_over_the_budget_exits_2(tmp_path, capsys, monkeypatch):
    # The settings admit the cell: its largest up-front array, 8192 B of
    # phasors for the 256 walk starts of its one chunk (b = 1, m = 72), fits
    # the 16000-byte budget. The walks refuse it as their points pass the
    # budget, here 500 points' phasors; the trial's chunk of walks reaches 4594
    # points when unbounded.
    monkeypatch.setattr("pathfield.paths.CELL_BYTES", 16000)
    argv = ["--scheme", "random_walk", "--b", "1", "--m", "8", "--gamma", "0.1", "--iters", "1"]
    rc = main(["sweep", *argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert re.fullmatch(r"error: random walks at gamma=0\.1 reached (\d+) points, whose phasors "
                        r"need (\d+) bytes, over the 16000-byte budget\n", err), err
    points, size = map(int, re.search(r"reached (\d+) .* need (\d+)", err).groups())
    assert 500 < points <= 4594 and size == 32 * points


def test_random_walk_budget_counts_every_chunk_of_a_cell(tmp_path, capsys, monkeypatch):
    # A cell of 3 * CHUNK walks draws three chunks. Each chunk's points, and the
    # first two chunks' together, fit a budget that their total passes by one
    # point, so the walks refuse the cell only because they count across chunks.
    cell = SchemeConfig(scheme=Scheme.RANDOM_WALK, m=3 * CHUNK, b=1, gamma=0.1)
    config = replace(cell, seed=trial_seed(0, cell, 0))

    def trial_paths(draw=None):
        rng = np.random.default_rng(config.seed)  # run_trial's draws: field, then paths
        generate_random_field(config.b, rng)
        return generate_paths(config, rng, draw)

    draw = Draw()
    trial_paths(draw)
    per_chunk = np.diff(draw.paths.offsets[::CHUNK])
    total = int(per_chunk.sum())
    budget = 32 * (total - 1)
    assert len(per_chunk) == 3 and 32 * int(per_chunk[:2].sum()) <= budget
    monkeypatch.setattr("pathfield.paths.CELL_BYTES", budget)
    message = (f"random walks at gamma=0.1 reached {total} points, whose phasors need "
               f"{32 * total} bytes, over the {budget}-byte budget")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        trial_paths()
    argv = ["--scheme", "random_walk", "--b", "1", "--m", repr(3 * CHUNK / 9), "--gamma", "0.1",
            "--iters", "1", "--no-reconstruct"]
    assert main(["sweep", *argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_one_budget_serves_sweeps_paths_and_walks(tmp_path, capsys, monkeypatch):
    # paths.CELL_BYTES is the one budget: lowering it alone refuses a sweep
    # cell up front, a `pathfield paths` cell up front, and random walks as
    # they grow.
    monkeypatch.setattr("pathfield.paths.CELL_BYTES", 1000)
    with pytest.raises(ConfigurationError, match=r"^cell \(scattered, b=3, m=392, gamma=0\.05\) "
                                                 r"needs 19208 bytes for its n x n Gram, over the "
                                                 r"1000-byte budget$"):
        SweepSpec(schemes=[Scheme.SCATTERED], b_values=[3], m_multiples=[8.0])
    out = tmp_path / "out"
    assert main(["paths", "--scheme", "scattered", "--m", "100", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: cell (scattered, m=100, gamma=0.05) needs 4096 "
                                       "bytes for its sample points, over the 1000-byte budget\n")
    assert not out.exists()
    with pytest.raises(ConfigurationError, match="^random walks at gamma=0.1 reached .* "
                                                 "over the 1000-byte budget$"):
        generate_paths(SchemeConfig(scheme=Scheme.RANDOM_WALK, m=20, gamma=0.1))


def test_sweep_unaware_for_unsupported_scheme_is_usage_error(tmp_path, capsys):
    rc = main(["sweep", "--scheme", "random_walk", "--unaware", "--b", "1",
               "--m", "1.5", "--iters", "1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "unaware" in capsys.readouterr().err


# --------------------------------------------------------------------- rank

@pytest.fixture(scope="module")
def ranking_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("rank")
    rc = main(["sweep", "--scheme", "all", "--b", "1", "--m", "2", "--gamma", "0.1",
               "--iters", "2", "--no-reconstruct", "--out", str(out)])
    assert rc == 0
    return out / "sweep.csv"


def test_rank_prints_all_schemes(ranking_csv, capsys):
    rc = main(["rank", "--results", str(ranking_csv), "--m", "18", "--gamma", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    for scheme in Scheme:
        assert scheme.value in out
    assert out.strip().splitlines()[1].startswith("1.")


def test_rank_missing_cell_is_runtime_error(ranking_csv, capsys):
    rc = main(["rank", "--results", str(ranking_csv), "--m", "999", "--gamma", "0.1"])
    assert rc == 3
    assert "no cell" in capsys.readouterr().err


def test_rank_rejects_a_csv_that_repeats_its_cells(tmp_path, capsys):
    # Two runs of the ci sweep concatenated: every cell appears twice, which
    # no choice of b can disambiguate.
    config = Path(__file__).parents[1] / "configs" / "ci.cfg"
    assert main(["sweep", "--config", str(config), "--iters", "1", "--no-reconstruct",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines(keepends=True)
    doubled = tmp_path / "doubled.csv"
    doubled.write_text("".join(lines + lines[1:]))
    capsys.readouterr()
    rc = main(["rank", "--results", str(doubled), "--b", "3", "--m", "74", "--gamma", "0.05"])
    assert rc == 3
    assert f"line {len(lines) + 1}: repeats the cell of line 2" in capsys.readouterr().err


@pytest.fixture(scope="module")
def unaware_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("unaware")
    rc = main(["sweep", "--scheme", ",".join(s.value for s in UNAWARE_SCHEMES), "--unaware",
               "--b", "1", "--m", "1.5,2", "--iters", "2", "--no-reconstruct", "--out", str(out)])
    assert rc == 0
    return out / "sweep.csv"


def test_rank_unaware_lists_the_unaware_schemes(unaware_csv, capsys):
    rc = main(["rank", "--results", str(unaware_csv), "--unaware", "--m", "14",
               "--gamma", "0.05", "--b", "1"])
    assert rc == 0
    places = capsys.readouterr().out.strip().splitlines()[1:]
    assert sorted(line.split()[1] for line in places) == sorted(s.value for s in UNAWARE_SCHEMES)


# --------------------------------------------------------------------- plot

def test_plot_labels_unaware_curves(unaware_csv, tmp_path):
    out = tmp_path / "plots"
    assert main(["plot", "--results", str(unaware_csv), "--out", str(out)]) == 0
    svgs = sorted(out.glob("cond_*.svg"))
    assert [p.name for p in svgs] == sorted(f"cond_{s.value}.svg" for s in UNAWARE_SCHEMES)
    for svg in svgs:
        assert ">b=1, gamma=0.05, unaware</text>" in svg.read_text()


def test_plot_panel_per_scheme(ranking_csv, tmp_path):
    out = tmp_path / "plots"
    rc = main(["plot", "--results", str(ranking_csv), "--out", str(out)])
    assert rc == 0
    files = sorted(p.name for p in out.glob("cond_*.svg"))
    assert len(files) == len(Scheme)


def test_plot_single_cell_csv(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--scheme", "scattered", "--b", "1", "--m", "1.5",
                 "--iters", "1", "--out", str(out)]) == 0
    plots = tmp_path / "plots"
    assert main(["plot", "--results", str(out / "sweep.csv"), "--out", str(plots)]) == 0
    svg = (plots / "cond_scattered.svg").read_text()
    assert "<circle" in svg


def test_plot_empty_csv_errors_without_output(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("scheme,b,m,gamma,aware,mean_cond,std_cond,mean_rel_err,excluded\n")
    plots = tmp_path / "plots"
    rc = main(["plot", "--results", str(empty), "--out", str(plots)])
    assert rc == 3
    assert "no result rows" in capsys.readouterr().err
    assert not plots.exists() or not list(plots.glob("*.svg"))


def test_plot_skips_all_singular_scheme_and_draws_the_rest(tmp_path, capsys):
    # At gamma = 1e300 a line's first gap is 1e300 * u with u a multiple of
    # 2^-53, so it reaches a second sample only when u = 0: each line keeps its
    # start alone except with probability 2^-53. Rows at boundary points alone
    # are rank deficient (sin 2 pi x sin 2 pi y vanishes on the boundary), so
    # both boundary-line cells are all-singular except with probability below
    # 2 * 3 * 18 * 2^-53 < 1.2e-14. Interior lines keep 18 uniform points, as
    # scattered does, and are drawn.
    sweep_out = tmp_path / "sweep"
    schemes = [Scheme.SCATTERED, Scheme.LINE_BOUNDARY_POINTS, Scheme.LINE_BOUNDARY_AVG,
               Scheme.LINE_INNER_AVG]
    assert main(["sweep", "--scheme", ",".join(s.value for s in schemes), "--b", "1",
                 "--m", "2", "--gamma", "1e300", "--iters", "3", "--no-reconstruct",
                 "--out", str(sweep_out)]) == 0
    capsys.readouterr()
    plots = tmp_path / "plots"
    rc = main(["plot", "--results", str(sweep_out / "sweep.csv"), "--out", str(plots)])
    assert rc == 0
    drawn = sorted(p.name for p in plots.glob("cond_*.svg"))
    assert drawn == ["cond_line_inner_avg.svg", "cond_scattered.svg"]
    err = capsys.readouterr().err
    assert "skipped line_boundary_points" in err and "skipped line_boundary_avg" in err


def test_plot_with_no_drawable_scheme_exits_3_before_creating_out(tmp_path, capsys):
    singular = tmp_path / "singular.csv"
    singular.write_text("scheme,b,m,gamma,aware,mean_cond,std_cond,mean_rel_err,excluded\n"
                        "scattered,1,14,0.05,true,nan,nan,nan,3\n"
                        "bee_hive,1,14,0.05,true,nan,nan,nan,3\n")
    plots = tmp_path / "plots"
    rc = main(["plot", "--results", str(singular), "--out", str(plots)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "skipped scattered" in err and "skipped bee_hive" in err
    assert "no scheme has a finite condition number" in err
    assert not plots.exists()


def test_plot_malformed_csv_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("scheme,b,m,gamma,aware,mean_cond,std_cond,mean_rel_err,excluded\n"
                   "scattered,1,14,0.05,true,2.0,0.1,0.0,0\n"
                   "scattered,1,xx,0.05,true,2.0,0.1,0.0,0\n")
    rc = main(["plot", "--results", str(bad), "--out", str(tmp_path / "plots")])
    assert rc == 3
    assert "line 3" in capsys.readouterr().err


# ------------------------------------------------------------------- parser

def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["rank", "--m", "10"])
    assert excinfo.value.code == 2
