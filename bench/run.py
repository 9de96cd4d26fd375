"""fistab benchmark: fixed presentation files through the fistab CLI.

    python3 bench/run.py --workload table --seed 0 --seconds 25 --trace 0

A closed loop with one client: each command of the workload runs in a
fresh interpreter, one after another, so caches start cold as they do for
a user.  One pass runs the workload's command list once.  Passes repeat
until ``--seconds`` is used up (at least two, or one traced pair).

With ``--trace 0`` the run reports the end-to-end metrics, each the
median over the passes (the result line holds the first three):

  rel_time     a pass's wall time over the harmonic mean of the times of
               the calibration loops run around it (see Run.rel_times)
  peak_rss_mb  largest max-RSS of any single child in the pass
  setup_s      fresh interpreter, ``import fistab.cli`` and parsing the
               workload's files, median of several set-ups, each scaled
               by the bare interpreter starts next to it (see measure_setup)
  wall_s       wall time of one pass: its commands' wall times, summed
  cpu_s        user+sys CPU of the pass's child processes

With ``--trace 1`` every traced pass is paired with an untraced one, and
the run reports the per-layer metrics of spans.py plus
``trace.overhead_s``, traced minus untraced pass wall time.

A workload's known defects (``workloads.KNOWN_DEFECTS``) run once per
run, outside the timed passes; their exit code and ``"passed"`` are
reported, and they count in neither ``attempted`` nor ``failed``.

The last line of standard output is the result object.  The lines before
it give each metric's median, quartiles and sample count, the
per-command times (``<command>_s``), ``failed_share`` with its base, the
known defects, and a JSON record of the environment and the calibration
times.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected"
COMMAND_TIMEOUT_S = 120
DEFAULT_SECONDS = 25
SETUP_REPEATS = 15
# setup_s is in seconds on a host where a bare interpreter starts in this
# long, about what it takes on a 2-core VM with Python 3.11.
REFERENCE_START_S = 0.05
# A run must end well inside three minutes: start no pass predicted to
# finish later than this, even below the minimum pass count.
LAST_PASS_END_S = 140

END_TO_END_UNITS = {
    "rel_time": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
}
# The end-to-end metrics of the result line, the ones BENCHMARK.json bounds.
# On a shared host whose speed swings by a third within minutes, raw
# seconds cannot hold a bound; rel_time carries the time gate, and wall_s
# and cpu_s are reported beside it.
RESULT_END_TO_END = ("rel_time", "peak_rss_mb", "setup_s")
PER_LAYER_UNITS = dict(spans.LAYER_UNITS, **{"trace.overhead_s": "s"})


class Child:
    """Result of one child process: wall and CPU time, peak RSS, output."""

    def __init__(self, argv, workdir: Path, tag: str):
        out_path = workdir / f"{tag}.out"
        err_path = workdir / f"{tag}.err"
        env = {
            k: v for k, v in os.environ.items()
            if k not in ("FISTAB_ORACLE_CAP", "PYTHONDONTWRITEBYTECODE")
        }
        env["PYTHONHASHSEED"] = "0"
        # Children read and write bytecode only in the run's own cache, which
        # the run fills from the sources before it measures anything.  No
        # .pyc left in the checkout or in the standard library is ever
        # loaded, and nothing is compiled inside a measurement.
        env["PYTHONPYCACHEPREFIX"] = str(workdir / "pycache")
        killed = []
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=out, stderr=err,
                cwd=ROOT, env=env,
            )
            timer = threading.Timer(
                COMMAND_TIMEOUT_S, lambda: (killed.append(True), proc.kill())
            )
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = None if killed else proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        self.stdout = out_path.read_bytes()
        self.stderr = err_path.read_bytes()


def calibrate(workdir: Path) -> float:
    child = Child([str(BENCH / "calibrate.py")], workdir, "calibrate")
    if child.returncode != 0:
        raise RuntimeError(f"calibration failed: {child.stderr.decode()}")
    return float(child.stdout)


def fill_bytecode_cache(commands, workdir: Path) -> None:
    """Compile what argparse loads at parse time into the run's cache.

    measure_setup's warm-up compiles fistab itself; without this, the first
    command of the first pass would compile the rest and run slower and
    larger than the commands after it.
    """
    for name in sorted({command.command for command in commands}):
        child = Child([str(BENCH / "invoke.py"), name, "--help"], workdir, "help")
        if child.returncode != 0:
            raise RuntimeError(f"{name} --help failed: {child.stderr.decode()}")


def measure_setup(paths, workdir: Path, repeats: int):
    """Scaled times of `repeats` set-ups, and the bare starts around them.

    An unmeasured warm-up comes first; it also fills the run's bytecode
    cache.  A bare interpreter start (``python3 -c pass``) runs before and
    after each set-up.  Each set-up's wall time is divided by the mean of
    the two starts next to it and multiplied by REFERENCE_START_S.  Both
    are mostly the cost of starting an interpreter, so a change in the
    host's speed cancels out, while what fistab adds, its import and the
    parsing, still shows.
    """
    argv = [str(BENCH / "invoke.py"), "--setup", *paths]
    starts, times = [], []
    for i in range(repeats + 1):
        child = Child(argv, workdir, "setup")
        if child.returncode != 0:
            raise RuntimeError(f"set-up failed: {child.stderr.decode()}")
        bare = Child(["-c", "pass"], workdir, "bare")
        if bare.returncode != 0:
            raise RuntimeError(f"bare start failed: {bare.stderr.decode()}")
        starts.append(bare.wall_s)
        if i:
            times.append(child.wall_s * REFERENCE_START_S / (sum(starts[-2:]) / 2))
    return times, starts


class Pass:
    """One pass over a workload's command list.

    Given the run's list of calibration times, the pass runs the
    calibration loop after every command and appends its time;
    ``first_calibration`` indexes the loop run just before the pass.
    """

    def __init__(self, commands, files, workdir: Path, traced: bool,
                 calibrations=None):
        self.commands = commands
        self.children = []
        self.traces = []
        if calibrations is not None:
            self.first_calibration = len(calibrations) - 1
        for i, command in enumerate(commands):
            argv = [str(BENCH / "invoke.py")]
            if traced:
                spans_path = workdir / f"spans-{i}.json"
                spans_path.unlink(missing_ok=True)
                argv += ["--trace", str(spans_path)]
            argv += command.argv(files)
            child = Child(argv, workdir, f"cmd-{i}")
            self.children.append(child)
            if traced and spans_path.exists():
                self.traces.append(json.loads(spans_path.read_text()))
            if calibrations is not None:
                calibrations.append(calibrate(workdir))
        self.wall_s = sum(child.wall_s for child in self.children)
        self.cpu_s = sum(child.cpu_s for child in self.children)
        self.peak_rss_mb = max(child.rss_mb for child in self.children)

    def command_times(self) -> dict[str, float]:
        out = {}
        for command, child in zip(self.commands, self.children):
            key = f"{command.command}_s"
            out[key] = out.get(key, 0.0) + child.wall_s
        return out


def summary(values) -> dict:
    """Median, quartiles and sample count of a list of numbers."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """Everything one benchmark run measured and checked."""

    def __init__(self, workload: str, seed: int, seconds: int, traced: bool):
        self.workload, self.traced = workload, traced
        self.commands = workloads.WORKLOADS[workload]
        self.defect_commands = workloads.KNOWN_DEFECTS.get(workload, [])
        self.expected = {
            c.label: (EXPECTED / f"{c.label}.json").read_bytes()
            for c in self.commands if c.check == "bytes"
        }
        workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            self._measure(seed, seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self._check()

    def _measure(self, seed, seconds, workdir):
        files = {}
        for name, text in workloads.inputs(seed).items():
            path = workdir / f"{name}.fipres"
            path.write_text(text, encoding="utf-8")
            files[name] = str(path)
        used = sorted({files[c.input] for c in self.commands})
        fill_bytecode_cache(self.commands, workdir)
        self.setup_s, self.bare_start_s = measure_setup(
            used, workdir, 0 if self.traced else SETUP_REPEATS
        )
        self.passes, self.traced_passes = [], []
        self.calibration_s = [calibrate(workdir)]
        start = time.perf_counter()
        while True:
            self.passes.append(Pass(
                self.commands, files, workdir, False, self.calibration_s
            ))
            if self.traced:
                self.traced_passes.append(
                    Pass(self.commands, files, workdir, True)
                )
            elapsed = time.perf_counter() - start
            step = elapsed / len(self.passes)
            if elapsed + step > LAST_PASS_END_S:
                break
            enough = len(self.passes) >= (1 if self.traced else 2)
            if enough and elapsed + step > seconds:
                break
        self.defect_children = [
            Child([str(BENCH / "invoke.py"), *command.argv(files)], workdir,
                  f"defect-{i}")
            for i, command in enumerate(self.defect_commands)
        ]

    def _check(self):
        self.tally = checks.Tally()
        for run_pass in self.passes + self.traced_passes:
            for command, child in zip(self.commands, run_pass.children):
                self.tally.add(
                    command.label, command.check, child.returncode,
                    child.stdout, self.expected.get(command.label),
                )
        self.defects = []
        for command, child in zip(self.defect_commands, self.defect_children):
            verdict = checks.judge(command.check, child.returncode, child.stdout, None)
            self.tally.correct &= not verdict.wrong
            report = checks.verify_report(child.stdout)
            self.defects.append({
                "label": command.label,
                "exit_code": child.returncode,
                "passed": report and report["passed"],
                "reproduces": verdict.failed,
                "reason": verdict.reason,
            })

    def rel_times(self) -> list[float]:
        """Each pass's wall time over the host's calibration time around it.

        The calibration time is the harmonic mean of the loops run during
        the pass and during the passes just before and after it.  Each loop
        samples the host's speed at one moment, and a pass sees the mean
        speed over its span, which the harmonic mean of the loops' times
        stands for.  The host's speed swings within seconds; of the windows
        tried on recorded runs, this one left the smallest spread between
        runs.
        """
        n = len(self.commands)
        out = []
        for p in self.passes:
            lo = max(0, p.first_calibration - n)
            window = self.calibration_s[lo:p.first_calibration + 2 * n + 1]
            out.append(p.wall_s / statistics.harmonic_mean(window))
        return out

    def end_to_end(self) -> dict[str, list[float]]:
        values = {
            "rel_time": self.rel_times(),
            "peak_rss_mb": [p.peak_rss_mb for p in self.passes],
            "setup_s": self.setup_s,
            "wall_s": [p.wall_s for p in self.passes],
            "cpu_s": [p.cpu_s for p in self.passes],
        }
        for p in self.passes:
            for key, seconds in p.command_times().items():
                values.setdefault(key, []).append(seconds)
        return values

    def per_layer(self) -> dict[str, list[float]]:
        values = {}
        for p in self.traced_passes:
            for key, value in spans.layer_metrics(p.traces).items():
                values.setdefault(key, []).append(value)
        values["trace.overhead_s"] = [
            traced.wall_s - plain.wall_s
            for plain, traced in zip(self.passes, self.traced_passes)
        ]
        return values

    def missing_spans(self) -> list[str]:
        """Required boundaries that recorded no span in some traced pass."""
        missing = set()
        for p in self.traced_passes:
            counts = spans.span_counts(p.traces)
            missing.update(
                name for name in workloads.REQUIRED_SPANS[self.workload]
                if not counts.get(name)
            )
        return sorted(missing)


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def report_lines(run: Run) -> tuple[list[str], dict]:
    """Human-readable summary lines and the metric record of a run."""
    if run.traced:
        values = run.per_layer()
        units = PER_LAYER_UNITS
    else:
        values = run.end_to_end()
        units = dict(END_TO_END_UNITS)
        units.update((k, "s") for k in values if k not in units)
    record = {
        name: dict(unit=units[name], **summary(values[name]))
        for name in values
    }
    lines = [f"{'metric':<32} {'unit':<6} {'median':>12} {'q1':>12} "
             f"{'q3':>12} {'n':>3}"]
    for name, row in record.items():
        lines.append(
            f"{name:<32} {row['unit']:<6} {row['median']:>12.6g} "
            f"{row['q1']:>12.6g} {row['q3']:>12.6g} {row['n']:>3}"
        )
    share = run.tally.failed / run.tally.attempted
    lines.append(
        f"{'failed_share':<32} {'ratio':<6} {share:>12.6g}   "
        f"({run.tally.failed} of {run.tally.attempted} commands)"
    )
    for reason, count in run.tally.reasons.items():
        lines.append(f"  failed x{count}: {reason}")
    for defect in run.defects:
        state = "reproduces" if defect["reproduces"] else "does not reproduce"
        lines.append(
            f"known defect {defect['label']}: exit code {defect['exit_code']}, "
            f"passed={defect['passed']}, {state} ({defect['reason'] or 'ok'})"
        )
    return lines, record


def require_sources() -> None:
    """Exit with an error unless the checkout holds the fistab sources."""
    if not (ROOT / "src" / "fistab" / "cli.py").is_file():
        sys.exit(f"error: no fistab sources under {ROOT / 'src'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_sources()
    # On SIGTERM, unwind so that the running child is killed and reaped
    # and the run's scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    if run.traced:
        missing = run.missing_spans()
        if missing:
            print(
                "error: traced boundaries recorded no spans on "
                f"{args.workload}: {', '.join(missing)}",
                file=sys.stderr,
            )
            return 1
    lines, record = report_lines(run)
    tally = run.tally
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(run.passes)} passes, trace {args.trace}")
    print("\n".join(lines))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "calibration_s": run.calibration_s,
        "bare_start_s": run.bare_start_s,
        "setup_samples_s": run.setup_s,
        "failed_share": {"failed": tally.failed, "attempted": tally.attempted},
        "failures": tally.reasons,
        "known_defects": run.defects,
        "metrics": record,
    }))
    names = PER_LAYER_UNITS if run.traced else RESULT_END_TO_END
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": record[name]["median"], "unit": record[name]["unit"]}
            for name in sorted(names)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
