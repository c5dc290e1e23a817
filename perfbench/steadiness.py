"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--first-seed 1]

Runs the benchmark untraced ``RUNS`` times on each workload of
BENCHMARK.json, each with the next seed, at the spec's ``run_seconds``.  For
each metric prints the median and the interquartile range
(``statistics.quantiles(n=4)``) as a share of the median, beside the metric's
bound; a spread above a third of its bound is marked.  Writes every value
to ``perfbench/.work/steadiness.json`` and each run's report to
``perfbench/.work/steadiness/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from smoke import HERE, load_spec, run_benchmark

RUNS = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    failed = []
    logs = HERE / ".work" / "steadiness"
    logs.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        runs = values.setdefault(workload, {name: [] for name in bounds})
        for k in range(RUNS):
            seed = args.first_seed + k
            result, text = run_benchmark(spec, workload, seed, spec["run_seconds"], 0)
            (logs / f"{workload}-{seed}.txt").write_text(text)
            if not result["correct"]:
                failed.append(f"{workload} seed {seed}")
            for name in bounds:
                runs[name].append(result["metrics"][name]["value"])
            print(f"  seed {seed}: " + ", ".join(f"{n} {runs[n][-1]:.6g}" for n in bounds), flush=True)
        print(f"{workload} ({RUNS} runs, seeds {args.first_seed}..{args.first_seed + RUNS - 1})")
        for name, bound in bounds.items():
            v = runs[name]
            q1, median, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median
            mark = "" if spread < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:<14} median {median:<12.6g} spread {spread:8.4f}  bound {bound}{mark}")
        sys.stdout.flush()
    (HERE / ".work" / "steadiness.json").write_text(json.dumps(values, indent=1))
    for item in failed:
        print("INCORRECT:", item)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
