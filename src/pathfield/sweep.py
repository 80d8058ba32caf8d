"""Seeded Monte Carlo sweeps over schemes, sample counts, and step sizes.

Each sweep cell is one `SchemeConfig` (scheme, b, m, gamma and awareness, plus
the spec's p and noise) and runs a number of trials: a random field and paths,
then from `sensing` the sensing matrix, its condition number and, optionally,
readings and a least-squares reconstruction. A curve is the cells that differ
only in m. Trials are independent across iterations; in one iteration the
cells of a curve share a seed hashed from the curve's key and the iteration,
so they share the field and one draw of paths, of which each takes the first m
(common random numbers). The unit of work is one (curve, iteration): its cells
run in increasing m on one `paths.Draw`, each extending the last one's paths
and what its operator kept to the result of its trial run alone. So results
are independent of execution order and of the other cells in the sweep.
"""

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from .field import generate_random_field
from .paths import (CHECKS, ConfigurationError, Draw, Scheme, SchemeConfig, UNAWARE_SCHEMES,
                    _flag, _integer, _real, _scheme, check_cell_bytes, generate_paths)
from .sensing import build_matrix, condition_number, measure, reconstruct_and_score

__all__ = [
    "SweepSpec",
    "parse_schemes",
    "CellResult",
    "SweepResult",
    "run_sweep",
    "run_trial",
    "trial_seed",
    "rank_schemes",
]

@dataclass(frozen=True)
class SweepSpec:
    """Grid of sweep cells plus the shared trial parameters.

    m values are specified as multiples of n = (2b+1)^2, the field's
    degree-of-freedom count, so one grid spans several bandwidths; every
    multiple must be >= 1 to keep the least-squares system overdetermined.
    A spec is frozen, so what its checks admitted holds; vary one with
    `dataclasses.replace`.
    """

    schemes: list = field(default_factory=lambda: list(Scheme))
    b_values: list = field(default_factory=lambda: [3])
    m_multiples: list = field(default_factory=lambda: [1.5, 2.0, 4.0, 8.0])
    gamma_values: list = field(default_factory=lambda: [0.05])
    iterations: int = 50
    base_seed: int = 0
    noise_sigma: float = 0.0
    aware: list = field(default_factory=lambda: [True])
    p: int = 25
    reconstruct: bool = True

    def __post_init__(self):
        for key, (name, *_) in SETTINGS.items():
            _check(key, getattr(self, name))
        object.__setattr__(self, "schemes", list(map(_scheme, self.schemes)))
        for mult, b in product(self.m_multiples, self.b_values):
            if not math.isfinite(float(mult) * (2 * b + 1) ** 2):
                raise ConfigurationError(f"m multiple {mult:g} times n at b={b} is not finite")
        cells = self.cells()
        for i, cell in enumerate(cells):
            check_cell_bytes(str(cell), cell, sensing=True)
            if cell in cells[:i]:
                raise ConfigurationError(f"the grid repeats {cell}; m is round(multiple * n)")

    def cells(self) -> list:
        """One `SchemeConfig` per cell, in run order, with seed 0; m = round(multiple * n)."""
        grid = product(self.schemes, self.b_values, self.m_multiples, self.gamma_values,
                       self.aware)
        return [SchemeConfig(scheme=scheme, m=int(round(mult * (2 * b + 1) ** 2)), b=b,
                             gamma=gamma, p=self.p, noise_sigma=self.noise_sigma,
                             location_aware=aware)
                for scheme, b, mult, gamma, aware in grid]

    def curves(self) -> dict:
        """The cells grouped into curves along m: {(scheme, b, gamma, aware):
        cells sorted by m}, in order of each key's first appearance."""
        return _curves(self.cells(), lambda c: (c.scheme, c.b, c.gamma, c.location_aware))

    @classmethod
    def from_file(cls, path, overrides=()) -> "SweepSpec":
        """Parse a config file with `from_text`; an unreadable file is a
        ConfigurationError that names it."""
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
        return cls.from_text(text, source=str(path), overrides=overrides)

    @classmethod
    def from_text(cls, text: str, source: str = "<config>", overrides=()) -> "SweepSpec":
        """Parse a plain-text spec: one `key = value` per line, `#` comments,
        comma-separated lists. Keys are those of SETTINGS. `overrides` holds
        (origin, line) pairs in the same syntax but without comments, read
        after the text so that their values win. An error names the text's
        line, or the origin."""
        numbered = [(f"{source} line {n}", raw.split("#", 1)[0])
                    for n, raw in enumerate(text.splitlines(), start=1)]
        kwargs = {}
        for where, raw in [*numbered, *overrides]:
            line = raw.strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{where}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key not in SETTINGS:
                raise ConfigurationError(f"{where}: unknown key {key!r}")
            name, parse, *_ = SETTINGS[key]
            try:
                kwargs[name] = _check(key, parse(value.strip()))
            except ValueError as exc:
                raise ConfigurationError(f"{where}: {exc}") from None
        return cls(**kwargs)


def _curves(cells, key) -> dict:
    """{key(cell): its cells sorted by m}, in order of each key's first appearance."""
    groups = {}
    for cell in cells:
        groups.setdefault(key(cell), []).append(cell)
    return {k: sorted(group, key=lambda c: c.m) for k, group in groups.items()}


def _items(value: str) -> list:
    return [v.strip() for v in value.split(",") if v.strip()]


def parse_schemes(value: str) -> list:
    """Comma-separated scheme names, or 'all' for every scheme in enum order."""
    names = _items(value)
    if len(names) == 1 and names[0].lower() == "all":
        return list(Scheme)
    if not names:
        raise ConfigurationError("at least one scheme is required")
    return list(map(_scheme, names))


def _list_of(parse):
    return lambda value: [parse(v) for v in _items(value)]


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _each(test):
    """A test that a value is a non-empty list or tuple whose every item passes `test`."""
    return lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(test, v))


# Config key -> (its one SweepSpec field, the parser of its value (ValueError if
# bad), the test the value must pass, the message if it fails). A setting that
# is a SchemeConfig field takes its test from `paths.CHECKS`; `_scheme` raises
# its own message for an unknown scheme.
SETTINGS = {
    "schemes": ("schemes", parse_schemes, _each(_scheme),
                "schemes must be a non-empty list of schemes"),
    "b": ("b_values", _list_of(int), _each(CHECKS["b"][0]),
          "b values must be a non-empty list of integers >= 0"),
    "m_multiples": ("m_multiples", _list_of(float), _each(lambda v: _real(v) and v >= 1),
                    "m multiples must be a non-empty list of finite numbers >= 1 "
                    "(m >= n keeps the system solvable)"),
    "gamma": ("gamma_values", _list_of(float), _each(CHECKS["gamma"][0]),
              "gamma values must be a non-empty list of finite numbers > 0"),
    "iterations": ("iterations", int, lambda v: _integer(v) and v >= 1,
                   "iterations must be an integer >= 1"),
    "aware": ("aware", _list_of(_parse_bool), _each(CHECKS["location_aware"][0]),
              "awareness flags must be a non-empty list of booleans"),
    "p": ("p", int, *CHECKS["p"]),
    "noise_sigma": ("noise_sigma", float, *CHECKS["noise_sigma"]),
    "seed": ("base_seed", int, _integer, "seed must be an integer"),
    "reconstruct": ("reconstruct", _parse_bool, _flag, "reconstruct must be a boolean"),
}


def _check(key: str, value):
    """The value, if it passes the test of its SETTINGS row; else a
    ConfigurationError with the row's message."""
    _, _, test, message = SETTINGS[key]
    if not test(value):
        raise ConfigurationError(message)
    return value


@dataclass
class CellResult:
    """Aggregates for one (scheme, b, m, gamma, aware) cell."""

    scheme: Scheme
    b: int
    m: int
    gamma: float
    aware: bool
    mean_cond: float
    std_cond: float
    mean_rel_err: float
    excluded: int


# The one schema of a sweep result: the CSV columns are CellResult's fields in
# order, and each value is written and read back by its field's type.
RESULT_HEADER = [f.name for f in fields(CellResult)]
_FORMAT = {Scheme: lambda v: v.value, bool: lambda v: "true" if v else "false",
           float: lambda v: repr(float(v)), int: str}
_PARSE = {Scheme: Scheme, bool: _parse_bool, float: float, int: int}


@dataclass
class SweepResult:
    cells: list

    def curves(self) -> dict:
        """The cells grouped into curves along m: {(scheme, b, gamma, aware):
        cells sorted by m}, in order of each key's first appearance."""
        return _curves(self.cells, lambda c: (c.scheme, c.b, c.gamma, c.aware))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RESULT_HEADER)
        for c in self.cells:
            writer.writerow([_FORMAT[f.type](getattr(c, f.name)) for f in fields(CellResult)])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, path) -> "SweepResult":
        with open(path, newline="") as fh:
            return cls.from_csv_text(fh.read(), source=str(path))

    @classmethod
    def from_csv_text(cls, text: str, source: str = "<csv>") -> "SweepResult":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != RESULT_HEADER:
            raise ValueError(f"{source} line 1: expected header {','.join(RESULT_HEADER)}")
        if len(rows) == 1:
            raise ValueError(f"{source}: no result rows")
        cells = []
        seen = {}  # (scheme, b, m, gamma, aware) -> line of its first row
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != len(RESULT_HEADER):
                raise ValueError(f"{source} line {lineno}: expected {len(RESULT_HEADER)} fields")
            try:
                cell = CellResult(*(_PARSE[f.type](value)
                                    for f, value in zip(fields(CellResult), row)))
            except ValueError as exc:
                raise ValueError(f"{source} line {lineno}: {exc}") from None
            first = seen.setdefault((cell.scheme, cell.b, cell.m, cell.gamma, cell.aware), lineno)
            if first != lineno:
                raise ValueError(f"{source} line {lineno}: repeats the cell of line {first}")
            cells.append(cell)
        return cls(cells=cells)


def trial_seed(base_seed: int, cell: SchemeConfig, iteration: int) -> int:
    """Stable per-trial seed derived from the cell's curve key (scheme, b,
    gamma, awareness) and the iteration index. m is not in the key, so the
    cells of one curve share each iteration's trial. gamma is keyed by its
    float value, so 1, 1.0 and np.float64(1.0) share a seed."""
    key = (f"{base_seed}|{cell.scheme.value}|{cell.b}|{float(cell.gamma)!r}|"
           f"{cell.location_aware}|{iteration}")
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_trial(config: SchemeConfig, reconstruct: bool = True, draw: Draw | None = None):
    """One trial: returns (condition number, rel error or nan).

    Without a draw it starts from nothing; with one, from what the last cell of
    the same curve and seed left in it (paths and kept sums), and the result is
    the same.
    """
    rng = np.random.default_rng(config.seed)
    fld = generate_random_field(config.b, rng)
    paths = generate_paths(config, rng, draw)
    X = build_matrix(paths, config, draw)
    cond = condition_number(X)
    if not math.isfinite(cond) or not reconstruct:
        return cond, float("nan")
    meas = measure(fld, X, paths, config, rng)
    # A finite cond means the solve's singularity check, on the same spectrum, passes.
    return cond, reconstruct_and_score(fld, X, meas)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every cell of the spec; deterministic given spec.base_seed.

    Each (curve, iteration) runs its cells in increasing m on one `Draw`;
    rows come out in `SweepSpec.cells` order. Numerically singular draws are
    excluded from the averages and counted in the cell's `excluded` field; a
    cell whose draws were all singular reports nan means.
    """
    trials = {cell: [] for cell in spec.cells()}
    for curve in spec.curves().values():
        for iteration in range(spec.iterations):
            for cell, outcome in zip(curve, _curve_trial(spec, curve, iteration)):
                trials[cell].append(outcome)
    return SweepResult(cells=[_cell_result(cell, outcomes) for cell, outcomes in trials.items()])


def _curve_trial(spec: SweepSpec, curve: list, iteration: int) -> list:
    """One (curve, iteration), from the spec and the curve's cells (sorted by m)
    alone: each cell's (condition number, rel error or nan), in curve order."""
    draw = Draw()
    return [run_trial(replace(cell, seed=trial_seed(spec.base_seed, cell, iteration)),
                      spec.reconstruct, draw) for cell in curve]


def _cell_result(cell: SchemeConfig, outcomes: list) -> CellResult:
    """A cell's aggregates over its (condition number, rel error) per trial."""
    conds = [cond for cond, _ in outcomes if math.isfinite(cond)]
    errors = [err for cond, err in outcomes if math.isfinite(cond) and math.isfinite(err)]
    return CellResult(
        scheme=cell.scheme, b=cell.b, m=cell.m, gamma=cell.gamma, aware=cell.location_aware,
        mean_cond=float(np.mean(conds)) if conds else float("nan"),
        std_cond=float(np.std(conds)) if conds else float("nan"),
        mean_rel_err=float(np.mean(errors)) if errors else float("nan"),
        excluded=len(outcomes) - len(conds),
    )


def rank_schemes(result: SweepResult, m: int, gamma: float,
                 b: int | None = None, aware: bool = True) -> list:
    """Schemes sorted by mean condition number at one (m, gamma) cell; a
    scheme whose mean is nan (all draws singular) ranks last.

    Requires every scheme that supports the awareness (all eight when aware,
    UNAWARE_SCHEMES when not) to have that cell in the result; raises
    ValueError when one is missing or ambiguous.
    """
    ranking = []
    for scheme in [s for s in Scheme if aware or s in UNAWARE_SCHEMES]:
        matches = [
            c for c in result.cells
            if c.scheme is scheme and c.m == m and c.gamma == gamma
            and c.aware == aware and (b is None or c.b == b)
        ]
        if not matches:
            raise ValueError(
                f"no cell for scheme={scheme.value}, m={m}, gamma={gamma}, aware={aware}"
            )
        if len(matches) > 1:
            raise ValueError(
                f"ambiguous cell for scheme={scheme.value}; pass b= to disambiguate"
            )
        ranking.append((scheme, matches[0].mean_cond))
    ranking.sort(key=lambda pair: (math.isnan(pair[1]), pair[1]))
    return ranking
