"""Fast self-test of the benchmark: every workload at b <= 2, one round each.

    python3 perfbench/selftest.py

It goes through the same code as run.py (warm-up, timed rounds, checks,
metrics) with tracing off and on, and then shows that the checks catch what
they are there to catch: a κ corrupted for one scheme moves trials_ok_share
past its bound, tracing that changes run_sweep's result fails the traced run,
and a raising run_sweep fails every trial of its call. It also runs run.py end to end and checks its
output against BENCHMARK.json. Exits 1 at the first unmet expectation.
"""

import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr

import run  # puts the checkout's src/ on the import path
from layers import CALLS, TRIAL, patched
from pathfield import Scheme, sweep
from workloads import WORKLOADS

SELFTEST_B = 2
SEED = 7
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
OK_SHARE_BOUND = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "trials_ok_share")


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL  {what}")
        sys.exit(1)
    print(f"ok    {what}")


def small(name: str, trace: bool) -> tuple:
    return run.bench(name, SEED, seconds=0, trace=trace, b=SELFTEST_B)


def check_workloads() -> None:
    for name in WORKLOADS:
        metrics, r = small(name, trace=False)
        expect(r.attempted >= 1 and not r.failed, f"{name}: {r.attempted} trials pass")
        expect(set(metrics) == set(END_TO_END) - {"setup_s"},
               f"{name}: end-to-end metrics besides setup_s")
        metrics, r = small(name, trace=True)
        expect(not r.failed, f"{name}: traced calls return what untraced ones do")
        expect(len(r.trials) == r.attempted and all(_nested(t) for _, t in r.trials),
               f"{name}: one trial span per trial, its calls nested inside")
        expect(set(metrics) == set(PER_LAYER), f"{name}: every per-layer metric")
        expect(all(math.isfinite(v) for v, _ in metrics.values()), f"{name}: finite values")
        again, _ = small(name, trace=True)
        expect(all(metrics[c] == again[c] for c in COUNTS), f"{name}: counts repeat")


def _nested(trial) -> bool:
    """The trial has its span last and each call it made once, inside it."""
    *calls, (name, start, end) = trial.spans
    names = [c[0] for c in calls]
    return (name == TRIAL and names == list(CALLS)[:len(names)] and len(names) >= 4
            and all(start <= s <= e <= end for _, s, e in calls))


def check_corrupted_cond() -> None:
    real = sweep.run_trial

    def corrupted(config, *args, **kwargs):
        cond, err = real(config, *args, **kwargs)
        return (cond * (1 + 1e-3) if config.scheme is Scheme.RANDOM_WALK else cond), err

    with patched(sweep, {"run_trial": corrupted}), redirect_stderr(io.StringIO()):
        metrics, r = small("grid_b3", trace=False)
    share = metrics["trials_ok_share"][0]
    expect(share < 1 - OK_SHARE_BOUND and r.failed,
           f"a κ corrupted for one scheme fails {len(r.failed)} of {r.attempted} trials "
           f"and drops trials_ok_share to {share:.3f}, past its bound")


def check_tracing_changes_result() -> None:
    real = run.layers.tracing

    @contextmanager
    def altering(trials):
        with real(trials):
            cond = sweep.condition_number
            with patched(sweep, {"condition_number": lambda X: cond(X) * (1 + 1e-12)}):
                yield

    with patched(run.layers, {"tracing": altering}), redirect_stderr(io.StringIO()):
        _, r = small("points_b10", trace=True)
    differ = [k for k, reason in r.failed.items() if reason.startswith("traced result differs")]
    expect(len(differ) == r.attempted, "tracing that changes κ fails every trial")


def check_raising_sweep() -> None:
    def broken(spec, progress=None):
        raise RuntimeError("injected")

    with patched(sweep, {"run_sweep": broken}), redirect_stderr(io.StringIO()):
        r = run.run_rounds(WORKLOADS["points_b10"], SEED, 0, False, SELFTEST_B)
        run.check(r)
    expect(len(r.failed) == r.attempted, "a raising run_sweep fails all of its trials")


def check_command() -> None:
    for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
        out = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "grid_b3", "--seed", str(SEED),
             "--seconds", "0", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=180)
        result = json.loads(out.stdout.splitlines()[-1])
        expect(out.returncode == 0 and result["correct"]
               and set(result) == {"correct", "attempted", "failed", "metrics"}
               and set(result["metrics"]) == set(names),
               f"run.py --trace {trace} prints the contract's result line")

    # Without the repository's sources the benchmark must refuse to run.
    run.SPAN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.SPAN_DIR) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "grid_b3", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    expect(out.returncode != 0 and not out.stdout.strip(),
           "without src/ it exits non-zero and prints no result")


if __name__ == "__main__":
    check_workloads()
    check_corrupted_cond()
    check_tracing_changes_result()
    check_raising_sweep()
    check_command()
    print("selftest passed")
