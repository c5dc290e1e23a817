"""teampay benchmark: drives ``teampay.cli.run`` in-process on seeded
problem files, times each CLI call from outside the program, and checks
every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run repeats passes over the workload's CLI calls for
``--seconds`` seconds, takes set-up times (fresh processes) spread between
the passes, and reports the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` untraced and traced passes alternate for ``--seconds`` seconds
and the run reports the per-layer metrics.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 7
SETUP_TIMEOUT_S = 60


def _percentile_note(samples: list) -> str:
    """Sample count and the highest percentile with at least ten samples
    beyond it, if any."""
    n = len(samples)
    if n < 11:
        return f"n={n}, too few samples for a tail percentile"
    return f"n={n}, p{100 * (n - 10) // n}={sorted(samples)[n - 11]:.6g}"


def measure_setup(problem_files: list, starts: int) -> list:
    """Wall time of ``starts`` fresh processes that import teampay and its CLI
    and parse and validate the problem files, timed from before the process
    starts."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *problem_files]
    environ = env.pinned_environ()
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=environ, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout.strip() != str(len(problem_files)):
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {proc.stderr.strip()}")
    return times


class Runner:
    """Runs passes over the workload's calls and keeps every measurement."""

    def __init__(self, calls: list):
        from teampay import cli

        self.cli = cli
        self.calls = calls
        self.attempted = 0
        self.failures = []          # (pass label, call label, error)
        self.walls = []             # per pass: total seconds inside cli.run
        self.by_command = []        # per pass: command -> seconds
        self.fallbacks = []         # per pass: warnings raised in contract_opt

    def one_pass(self, label: str) -> None:
        wall = 0.0
        by_command = {}
        fallbacks = 0
        for call in self.calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                try:
                    code = self.cli.run(list(call.argv))
                except Exception as exc:  # a crash is a failed call, not a failed benchmark
                    code, error = None, f"uncaught {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
            if code is not None:
                try:
                    error = call.check(code, out.getvalue())
                except Exception as exc:
                    error = f"output check raised {type(exc).__name__}: {exc}"
                if error and err.getvalue():
                    error += f" (stderr: {err.getvalue().strip()[:300]})"
            self.attempted += 1
            if error:
                self.failures.append((label, call.label, error))
            wall += elapsed
            by_command[call.command] = by_command.get(call.command, 0.0) + elapsed
            fallbacks += sum(1 for w in caught if Path(w.filename).name == "contract_opt.py")
        self.walls.append(wall)
        self.by_command.append(by_command)
        self.fallbacks.append(fallbacks)

    def command_samples(self, commands, passes=slice(None)) -> dict:
        """cmd.<command>_s -> per-pass seconds in that command's calls."""
        return {f"cmd.{c}_s": [p.get(c, 0.0) for p in self.by_command[passes]] for c in commands}


def repeat_for(seconds: float, step) -> None:
    """Call ``step(k)`` for k = 0, 1, ... for about ``seconds``: at least
    twice, so that a run never rests on a single pass, then again while it
    would end less than half a step past the budget, so the count is the
    budget over the mean step time, rounded."""
    start = time.perf_counter()
    count = 0
    while True:
        step(count)
        count += 1
        elapsed = time.perf_counter() - start
        if count >= 2 and elapsed + 0.5 * elapsed / count >= seconds:
            return


def untraced_values(runner: Runner, problem_files: list, seconds: float) -> dict:
    """Passes for ``seconds``, with the fresh set-up starts spread between
    them (one before the first pass, the others as their share of the budget
    comes due), so that a slow stretch of the host reaches few of them."""
    start = time.perf_counter()
    setup = measure_setup(problem_files, 1)

    def step(k):
        runner.one_pass(f"pass{k}")
        due = min(SETUP_STARTS, math.ceil(SETUP_STARTS * (time.perf_counter() - start) / seconds))
        setup.extend(measure_setup(problem_files, due - len(setup)))

    repeat_for(seconds, step)
    setup.extend(measure_setup(problem_files, SETUP_STARTS - len(setup)))
    return {
        "setup_s": setup,
        "wall_s": runner.walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **runner.command_samples(sorted({c.command for c in runner.calls})),
    }


def traced_values(runner: Runner, seconds: float, spans_path: Path, units: dict) -> dict:
    """Untraced and traced passes alternate (at least one of each), so that
    host drift over the run reaches both alike.  Times are medians over the
    traced passes; counts come from the first one and must repeat."""
    import tracer as tracing
    import workloads

    tr = tracing.Tracer()
    layer_runs = []

    def step(k):
        if k % 2 == 0:
            runner.one_pass(f"untraced{k // 2}")
            return
        label = f"traced{k // 2}"
        tr.install()
        try:
            runner.one_pass(label)
        finally:
            tr.uninstall()
        layer_runs.append(tracing.layer_metrics(tr, runner.fallbacks[-1]))
        tr.write_spans(spans_path, label)
        tr.reset()

    spans_path.unlink(missing_ok=True)
    repeat_for(seconds, step)

    values = {}
    for name, first in layer_runs[0].items():
        samples = [run[name] for run in layer_runs]
        if units[name] == "s":
            values[name] = samples
            continue
        values[name] = first
        if any(s != first for s in samples):
            print(f"  warning: {name} differs between traced passes: {samples}")
    values["trace.overhead_frac"] = (
        statistics.median(runner.walls[1::2]) / statistics.median(runner.walls[0::2]) - 1.0)
    values.update(runner.command_samples(workloads.COMMANDS, slice(0, None, 2)))
    print(f"  spans written to {spans_path.relative_to(env.ROOT)}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        env.prepare()
    except env.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import numpy
    import scipy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reference = json.loads((HERE / "reference.json").read_text())
    workdir = env.WORK / f"{args.workload}-{args.seed}"
    problem_files, calls = workloads.build(args.workload, args.seed, workdir, reference)

    print(f"teampay benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print(f"  machine: nproc {len(os.sched_getaffinity(0))}, BLAS threads {env.BLAS_THREADS}, "
          f"python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}")
    print(f"  {len(calls)} CLI calls per pass ({', '.join(sorted({c.command for c in calls}))}); "
          "closed loop, one call at a time")

    runner = Runner(calls)
    start = time.perf_counter()
    if args.trace:
        values = traced_values(runner, args.seconds, workdir / "spans.jsonl", units)
    else:
        values = untraced_values(runner, problem_files, args.seconds)
    values["fail_frac"] = len(runner.failures) / runner.attempted

    print(f"  {len(runner.walls)} passes, {runner.attempted} calls, {len(runner.failures)} failed, "
          f"{time.perf_counter() - start:.1f} s; pass walls (s): "
          + " ".join(f"{w:.4f}" for w in runner.walls))
    metrics = {}
    for name, value in values.items():
        note = ""
        if isinstance(value, list):
            value, note = statistics.median(value), f"  ({_percentile_note(value)})"
        print(f"  {name:<36} {value:>14.6g} {units[name]}{note}")
        metrics[name] = value
    for pass_label, call_label, error in runner.failures:
        print(f"  FAILED {pass_label} {call_label}: {error}")

    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in group},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
