"""Seeded Monte Carlo sweeps over schemes, sample counts, and step sizes.

Each sweep cell (scheme, b, m, gamma, awareness) runs a number of independent
trials: fresh random field, fresh paths, sensing matrix, condition number,
and optionally a least-squares reconstruction. Per-trial seeds are derived by
hashing the cell key, so results are independent of execution order and of
the other cells in the sweep.
"""

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field, fields
from itertools import product
from pathlib import Path

import numpy as np

from .estimation import condition_number, measure, reconstruct_and_score
from .field import generate_random_field
from .paths import ConfigurationError, Scheme, SchemeConfig, UNAWARE_SCHEMES, generate_paths
from .sensing import build_matrix

__all__ = [
    "SweepSpec",
    "parse_schemes",
    "CellResult",
    "SweepResult",
    "TrendGroup",
    "run_sweep",
    "trial_seed",
    "check_bound_trend",
    "rank_schemes",
]

SCHEME_NAMES = [s.value for s in Scheme]


@dataclass
class SweepSpec:
    """Grid of sweep cells plus the shared trial parameters.

    m values are specified as multiples of n = (2b+1)^2, the field's
    degree-of-freedom count, so one grid spans several bandwidths; every
    multiple must be >= 1 to keep the least-squares system overdetermined.
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
        self.schemes = [s if isinstance(s, Scheme) else Scheme(s) for s in self.schemes]
        for name in _RULES:
            _check(name, getattr(self, name))
        if False in self.aware:
            unsupported = [s.value for s in self.schemes if s not in UNAWARE_SCHEMES]
            if unsupported:
                raise ConfigurationError(
                    f"location-unaware mode is undefined for schemes {unsupported}; "
                    "run them in a separate location-aware sweep"
                )
        cells = self.cells()
        for i, (scheme, b, m, gamma, aware) in enumerate(cells):
            if cells[i] in cells[:i]:
                raise ConfigurationError(
                    f"the grid repeats cell ({scheme.value}, b={b}, m={m}, gamma={gamma:g}"
                    f"{'' if aware else ', unaware'}); m is round(multiple * n)")

    def cells(self) -> list:
        """The (scheme, b, m, gamma, aware) cells in run order; m = round(multiple * n)."""
        grid = product(self.schemes, self.b_values, self.m_multiples, self.gamma_values,
                       self.aware)
        return [(scheme, b, int(round(mult * (2 * b + 1) ** 2)), gamma, aware)
                for scheme, b, mult, gamma, aware in grid]

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
        comma-separated lists. Keys are those of CONFIG_KEYS. `overrides` holds
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
            if key not in CONFIG_KEYS:
                raise ConfigurationError(f"{where}: unknown key {key!r}")
            name = CONFIG_KEYS[key]
            try:
                kwargs[name] = _check(name, _PARSERS[name](value.strip()))
            except ValueError as exc:
                raise ConfigurationError(f"{where}: {exc}") from None
        return cls(**kwargs)


def _items(value: str) -> list:
    return [v.strip() for v in value.split(",") if v.strip()]


def parse_schemes(value: str) -> list:
    """Comma-separated scheme names, or 'all' for every scheme in enum order."""
    names = _items(value)
    if len(names) == 1 and names[0].lower() == "all":
        return list(Scheme)
    if not names:
        raise ConfigurationError("at least one scheme is required")
    for name in names:
        if name not in SCHEME_NAMES:
            raise ConfigurationError(
                f"unknown scheme {name!r}; valid schemes: {', '.join(SCHEME_NAMES)}")
    return [Scheme(name) for name in names]


def _finite(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _list_of(parse):
    return lambda value: [parse(v) for v in _items(value)]


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


# Config key -> SweepSpec field.
CONFIG_KEYS = {
    "schemes": "schemes", "scheme": "schemes",
    "b": "b_values", "b_values": "b_values",
    "m": "m_multiples", "m_multiples": "m_multiples",
    "gamma": "gamma_values", "gamma_values": "gamma_values",
    "iterations": "iterations", "iters": "iterations",
    "seed": "base_seed", "base_seed": "base_seed",
    "noise_sigma": "noise_sigma",
    "aware": "aware",
    "p": "p",
    "reconstruct": "reconstruct",
}
# SweepSpec field -> parser of its config value; a bad value raises ValueError.
_PARSERS = {
    "schemes": parse_schemes,
    "b_values": _list_of(int),
    "m_multiples": _list_of(_finite),
    "gamma_values": _list_of(_finite),
    "iterations": int,
    "base_seed": int,
    "noise_sigma": _finite,
    "aware": _list_of(_parse_bool),
    "p": int,
    "reconstruct": _parse_bool,
}
# SweepSpec field -> (test its value must pass, message when it fails).
_RULES = {
    "schemes": (bool, "at least one scheme is required"),
    "b_values": (lambda v: v and all(b >= 0 for b in v), "b values must be >= 0"),
    "m_multiples": (lambda v: v and all(mult >= 1.0 for mult in v),
                    "m multiples must be >= 1 (m >= n keeps the system solvable)"),
    "gamma_values": (lambda v: v and all(g > 0 for g in v), "gamma values must be > 0"),
    "iterations": (lambda v: v >= 1, "iterations must be >= 1"),
    "aware": (bool, "at least one awareness flag is required"),
    "p": (lambda v: v >= 2, "p must be >= 2"),
    "noise_sigma": (lambda v: v >= 0, "noise_sigma must be >= 0"),
}


def _check(name: str, value):
    """The value, if it passes its field's rule in _RULES (fields without
    one always pass); else a ConfigurationError with the rule's message."""
    if name in _RULES and not _RULES[name][0](value):
        raise ConfigurationError(_RULES[name][1])
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
        groups = {}
        for c in self.cells:
            groups.setdefault((c.scheme, c.b, c.gamma, c.aware), []).append(c)
        return {key: sorted(cells, key=lambda c: c.m) for key, cells in groups.items()}

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


def trial_seed(base_seed: int, scheme: Scheme, b: int, m: int, gamma: float,
               aware: bool, iteration: int) -> int:
    """Stable per-trial seed derived from the cell key and iteration index."""
    key = f"{base_seed}|{scheme.value}|{b}|{m}|{gamma!r}|{aware}|{iteration}"
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_trial(config: SchemeConfig, reconstruct: bool = True):
    """One independent trial: returns (condition number, rel error or nan)."""
    rng = np.random.default_rng(config.seed)
    fld = generate_random_field(config.b, rng)
    paths = generate_paths(config, rng)
    X = build_matrix(paths, config)
    cond = condition_number(X)
    if not math.isfinite(cond) or not reconstruct:
        return cond, float("nan")
    meas = measure(fld, paths, config, rng)
    # A finite cond means the solve's singularity check, on the same spectrum, passes.
    return cond, reconstruct_and_score(fld, X, meas)


def run_sweep(spec: SweepSpec, progress=None) -> SweepResult:
    """Run every cell of the spec; deterministic given spec.base_seed.

    Numerically singular draws are excluded from the averages and counted in
    the cell's `excluded` field; a cell whose draws were all singular reports
    nan means. `progress`, if given, is called with each finished CellResult.
    """
    cells = []
    for scheme, b, m, gamma, aware in spec.cells():
        conds = []
        errors = []
        excluded = 0
        for iteration in range(spec.iterations):
            seed = trial_seed(spec.base_seed, scheme, b, m, gamma, aware, iteration)
            config = SchemeConfig(
                scheme=scheme, m=m, b=b, gamma=gamma, p=spec.p,
                noise_sigma=spec.noise_sigma, location_aware=aware, seed=seed,
            )
            cond, rel_err = run_trial(config, reconstruct=spec.reconstruct)
            if not math.isfinite(cond):
                excluded += 1
                continue
            conds.append(cond)
            if math.isfinite(rel_err):
                errors.append(rel_err)
        cell = CellResult(
            scheme=scheme, b=b, m=m, gamma=gamma, aware=aware,
            mean_cond=float(np.mean(conds)) if conds else float("nan"),
            std_cond=float(np.std(conds)) if conds else float("nan"),
            mean_rel_err=float(np.mean(errors)) if errors else float("nan"),
            excluded=excluded,
        )
        cells.append(cell)
        if progress is not None:
            progress(cell)
    return SweepResult(cells=cells)


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
