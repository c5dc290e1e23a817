"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py [--seconds S]

Runs every workload, seed ``SEED``, once untraced and twice traced (at the default
``--seconds 1``, two passes untraced and one untraced plus one traced pass
traced) and checks that each run exits 0, passes its output
checks, and prints every metric BENCHMARK.json names, with its unit, and that
the two traced runs report identical counts.  Prints each run's report, so
with a longer ``--seconds`` it is also the one command that shows every
metric of every workload.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600
SEED = 1


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    """One benchmark run from the repository root, as the spec's command.
    Returns the parsed last stdout line and the full stdout."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if cmd[0] in ("python3", "python"):
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().split("\n")[-1]), proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)

    spec = load_spec()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, text = run_benchmark(spec, workload, SEED, args.seconds, trace)
            print(text, end="")
            expected = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            where = f"{workload} trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                                f"attempted={result['attempted']}")
            if got != expected:
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
                problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong units {wrong}")
            for name, m in result["metrics"].items():
                if not isinstance(m.get("value"), (int, float)):
                    problems.append(f"{where}: {name} value {m.get('value')!r} is not a number")
            if trace:
                again, _ = run_benchmark(spec, workload, SEED, args.seconds, trace)
                for name, m in result["metrics"].items():
                    if m["unit"] == "count" and again["metrics"][name]["value"] != m["value"]:
                        problems.append(f"{where}: count {name} differs between two traced runs: "
                                        f"{m['value']} vs {again['metrics'][name]['value']}")
    for problem in problems:
        print("SMOKE FAILURE:", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
