"""pathfield benchmark: time `run_sweep` on one workload and check its results.

    python3 perfbench/run.py --workload grid_b3 --seed 1 --seconds 45 --trace 0

Run from a checkout: pathfield is imported from its `src/`. The workload's
sweep specs (see workloads.py) run in this process, one round after another,
until about `--seconds` of `run_sweep` time has passed; round r uses
`base_seed = seed + r * ROUND_SEED_STRIDE`. Outside the timed region every
cell is checked, and every trial of round 0 is checked against a dense SVD
oracle (oracle.py).

--trace 0 reports the end-to-end metrics: trials/s (trials run divided by
the wall time of all run_sweep calls), peak RSS of this process after round
0, set-up time (median of SETUP_PROBES fresh processes that import
pathfield, build the specs and warm up) and the share of round 0's trials
that passed every check. `correct` is false if any trial of any round failed.
--trace 1 runs each spec twice, untraced and with timing wrappers patched
into pathfield.sweep (layers.py), checks that both return the same result,
writes the spans to .perfbench/ and reports the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is the run record.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "pathfield" / "__init__.py").is_file():
    sys.exit(f"perfbench: no pathfield sources under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import pathfield  # noqa: E402
from pathfield import sweep  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROUND_SEED_STRIDE = 1_000_003
SETUP_PROBES = 5
WARMUP_B = 1
SPAN_DIR = ROOT / ".perfbench"


@dataclass
class Call:
    """One run_sweep call, and the SchemeConfig of each trial it ran."""

    round: int
    index: int        # the spec's index in the round
    spec: object
    traced: bool
    configs: list
    result: object    # SweepResult, or None if the call raised


@dataclass
class Run:
    """What the timed rounds did; trials are keyed (round, spec index, cell)."""

    keys: set = field(default_factory=set)         # every trial attempted
    failed: dict = field(default_factory=dict)     # trial key -> reason
    untraced_trials: int = 0                       # trials run by untraced calls
    sweep_s: float = 0.0                           # wall time inside untraced run_sweep
    traced_s: float = 0.0                          # wall time inside traced run_sweep
    rounds: int = 0
    peak_rss_mb: float = 0.0                       # high-water mark after round 0
    calls: list = field(default_factory=list)      # Call per run_sweep call
    trials: list = field(default_factory=list)     # (round, layers.Trial) of traced calls

    @property
    def attempted(self) -> int:
        return len(self.keys)

    def fail(self, key, reason: str) -> None:
        if key not in self.failed:
            print(f"perfbench: trial {key} failed: {reason}", file=sys.stderr)
            self.failed[key] = reason

    def ok_share(self) -> float:
        """Share of round 0's trials, the ones every check covers, that passed."""
        checked = [key for key in self.keys if key[0] == 0]
        return sum(key not in self.failed for key in checked) / len(checked)


def trial_count(spec) -> int:
    grid = (spec.schemes, spec.b_values, spec.m_multiples, spec.gamma_values, spec.aware)
    return math.prod(len(axis) for axis in grid) * spec.iterations


@contextmanager
def recording(configs: list):
    """Within the block, keep the SchemeConfig of every trial run_sweep runs."""
    real = sweep.run_trial

    def run_trial(config, *args, **kwargs):
        configs.append(config)
        return real(config, *args, **kwargs)

    with layers.patched(sweep, {"run_trial": run_trial}):
        yield


def warm_up(workload, seed: int, trace: bool) -> None:
    """Run the workload's shapes once at b=1 so lazy set-up is paid before timing."""
    for spec in workload.specs(seed, WARMUP_B):
        with recording([]), layers.tracing([]) if trace else nullcontext():
            sweep.run_sweep(spec)


def run_rounds(workload, seed: int, seconds: float, trace: bool, b: int | None = None) -> Run:
    """Run whole rounds until about `seconds` of timed work has passed.

    Traced, each spec runs twice, untraced and traced, in an order that
    alternates from round to round.
    """
    run = Run()
    while True:
        r = run.rounds
        for i, spec in enumerate(workload.specs(seed + r * ROUND_SEED_STRIDE, b)):
            run.keys.update((r, i, cell) for cell in range(trial_count(spec)))
            passes = (False,) if not trace else (False, True) if r % 2 == 0 else (True, False)
            for traced in passes:
                _call(run, r, i, spec, traced)
        run.rounds += 1
        if run.rounds == 1:
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        elapsed = run.sweep_s + run.traced_s
        if elapsed + elapsed / run.rounds / 2 >= seconds:
            return run


def _call(run: Run, r: int, i: int, spec, traced: bool) -> None:
    configs, trials = [], []
    with recording(configs), layers.tracing(trials) if traced else nullcontext():
        t0 = time.perf_counter()
        try:
            result = sweep.run_sweep(spec)
        except Exception:
            traceback.print_exc()
            result = None
        elapsed = time.perf_counter() - t0
    if traced:
        run.traced_s += elapsed
        run.trials.extend((r, t) for t in trials)
    else:
        run.sweep_s += elapsed
        run.untraced_trials += trial_count(spec)
    run.calls.append(Call(r, i, spec, traced, configs, result))


def check(run: Run) -> None:
    """Mark trials whose results are wrong; runs outside the timed region.

    Every cell is checked for plausibility, every round-0 trial against the
    SVD oracle, and a traced call must return what its untraced twin did.
    """
    untraced = {}
    for call in run.calls:
        keys = [(call.round, call.index, cell) for cell in range(trial_count(call.spec))]
        if call.result is None:
            for key in keys:
                run.fail(key, "call raised")
            continue
        if not call.traced:
            untraced[call.round, call.index] = call.result.to_csv_text()
        configs = {(c.scheme, c.b, c.m, c.gamma, c.location_aware): c for c in call.configs}
        for key, cell in zip(keys, call.result.cells):
            problem = oracle.cell_problem(cell, call.spec.iterations)
            if problem:
                run.fail(key, problem)
            elif call.round == 0 and not call.traced and math.isfinite(cell.mean_cond):
                # One trial per cell, so mean_cond is that trial's κ.
                config = configs[cell.scheme, cell.b, cell.m, cell.gamma, cell.aware]
                reference = oracle.oracle_cond(config)
                if not oracle.cond_matches(cell.mean_cond, reference):
                    run.fail(key, f"{config.scheme.value} aware={config.location_aware} "
                             f"m={config.m}: κ {cell.mean_cond!r}, SVD oracle {reference!r}")
    for call in run.calls:
        twin = untraced.get((call.round, call.index))
        if call.traced and call.result is not None and twin is not None \
                and call.result.to_csv_text() != twin:
            for cell in range(trial_count(call.spec)):
                run.fail((call.round, call.index, cell), "traced result differs from untraced")


def probe_setup(workload_name: str, seed: int) -> float:
    """Median set-up time of fresh processes: start -> import, specs, warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]) - start)
    return statistics.median(times)


def blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(workload_name: str, seed: int, seconds: float, trace: bool, run: Run) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": run.rounds, "trials": run.untraced_trials,
        "timed_s": run.sweep_s + run.traced_s,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "pathfield": pathfield.__version__,
        "git_revision": git_revision(),
    }


def write_spans(path: Path, run: Run) -> None:
    """Write every span as one JSON line; a call's parent is its trial span."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for r, t in run.trials:
            for name, start, end in t.spans:
                fh.write(json.dumps({
                    "trial": t.seed, "round": r, "name": name,
                    "parent": None if name == layers.TRIAL else layers.TRIAL,
                    "start_ns": start, "end_ns": end,
                }) + "\n")


def bench(workload_name: str, seed: int, seconds: float, trace: bool,
          b: int | None = None) -> tuple:
    """Warm up, run the timed rounds, check them; returns (metrics, run).

    metrics maps name -> (value, unit). Peak RSS is the high-water mark after
    warm-up and round 0, the trial set the seed fixes: later rounds would make
    it depend on how many rounds fit in the time, and the checks' dense SVDs
    would raise it.
    """
    workload = WORKLOADS[workload_name]
    warm_up(workload, seed, trace)
    run = run_rounds(workload, seed, seconds, trace, b)
    check(run)
    if trace:
        trials = [t for _, t in run.trials]
        counted = [t for r, t in run.trials if r == 0]
        metrics = layers.layer_metrics(trials, counted, run.sweep_s, run.traced_s)
    else:
        metrics = {
            "trials_per_s": (run.untraced_trials / run.sweep_s, "trials/s"),
            "peak_rss_mb": (run.peak_rss_mb, "MB"),
            "trials_ok_share": (run.ok_share(), "ratio"),
        }
    return metrics, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import, build the specs and warm up; print the monotonic clock")
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if args.setup_probe:
        warm_up(WORKLOADS[args.workload], args.seed, trace=False)
        print(time.monotonic())
        return 0

    setup_s = None if trace else probe_setup(args.workload, args.seed)
    metrics, run = bench(args.workload, args.seed, args.seconds, trace)
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")
    record = run_record(args.workload, args.seed, args.seconds, trace, run)
    if trace:
        spans = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans, run)
        record["spans"] = str(spans.relative_to(ROOT))

    failed = len(run.failed)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:28s} {value:.6g} {unit}")
    print(f"{args.workload}  {'failed_share':28s} {failed / run.attempted:.6g} ratio "
          f"({failed} of {run.attempted} trials)")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
