"""One fresh-process set-up: import teampay and its CLI, then parse and
validate each problem file given on the command line.

    python3 perfbench/setup_probe.py PROBLEM.json [PROBLEM.json ...]

Expects teampay on PYTHONPATH.  Prints the number of problems validated and
exits 0, or exits 1 naming the first invalid problem.
"""

import json
import sys


def main(paths) -> int:
    import teampay.cli  # noqa: F401  (the import cost is part of set-up)
    from teampay.model import problem_from_dict, validate_problem

    for path in paths:
        with open(path, encoding="utf-8") as fh:
            report = validate_problem(problem_from_dict(json.load(fh)))
        if not report.ok:
            print(f"invalid problem {path}: {report.violations}", file=sys.stderr)
            return 1
    print(len(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
