"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Runs every workload's calls once and writes ``perfbench/reference.json``:
the principal payoffs of the fixed optimize and equity instances, the
payoff column of the figure sweep, and, for seeds 0 to
``workloads.REFERENCE_SEEDS`` - 1, the payoffs of the seeded large-network
optimize instances (``workloads.SEEDED_OPTIMA``).  Run it only on a commit whose
outputs are trusted; the checks are one-sided, so a later commit that finds
better optima still passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent


def _outputs(workload: str, seed: int, labels=None) -> dict:
    """Label -> principal payoff (or the sweep's payoff column) of each call,
    or of the calls named in ``labels``."""
    import workloads
    from teampay import cli

    _, calls = workloads.build(workload, seed, env.WORK / f"record-{workload}-{seed}", None)
    found = {}
    for call in calls:
        if labels is not None and call.label not in labels:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(list(call.argv))
        error = call.check(code, out.getvalue())
        if error:
            raise RuntimeError(f"{workload} {call.label}: {error}")
        if call.command == "sweep":
            lines = out.getvalue().strip().split("\n")
            col = lines[0].split(",").index("principal_payoff")
            found[call.label] = [float(line.split(",")[col]) for line in lines[1:]]
        elif call.command in ("optimize", "equity"):
            found[call.label] = json.loads(out.getvalue())["principal_payoff"]
    return found


def main() -> int:
    env.prepare()

    import workloads

    reference = {}
    for workload in ("closed_form", "general_path"):
        reference.update(_outputs(workload, 0))
    reference.update(_outputs("large_network", 0, {"gnp40"}))
    seeded = {}
    for seed in range(workloads.REFERENCE_SEEDS):
        seeded[str(seed)] = _outputs("large_network", seed, workloads.SEEDED_OPTIMA)
        print(f"seed {seed}: {seeded[str(seed)]}", file=sys.stderr)
    reference["large_network"] = seeded
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
