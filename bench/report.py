"""Run every workload once and print all its end-to-end metrics.

    python3 bench/report.py

For each workload this prints, per metric, the unit, the median, the
quartiles and the sample count over the run's passes, including the
per-command times, ``failed_share`` with its base and the known defects.
Every run uses the default seed and run length.  Workloads run one after
another, never side by side.
"""

import sys

import run
import workloads


def main() -> int:
    run.require_sources()
    print(f"environment: {run.environment()}")
    for name in workloads.WORKLOADS:
        result = run.Run(
            name, workloads.DEFAULT_SEED, run.DEFAULT_SECONDS, traced=False
        )
        lines, _ = run.report_lines(result)
        print(f"\n== {name} (seed {workloads.DEFAULT_SEED}, "
              f"{len(result.passes)} passes, correct={result.tally.correct})")
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
