"""Pillowcase benchmark: time to a verified result for one CLI workload.

    python3 perfbench/run.py --workload potential --seed 1 --seconds 40 --trace 0

Runs `python -m pillowcase.cli` from this checkout's `src` in child
processes, one job at a time (a closed loop with one client), each started
through launch.py.  After one untimed warm-up probe, it runs rounds of three
set-up probes (`sublattices --degree 1`) and one workload job until --seconds
have passed, so that drift of the machine hits both alike.  Each child's wall
time runs from spawn to exit; its CPU time and peak RSS come from its own
rusage (`os.wait4` in the launcher), never from RUSAGE_CHILDREN, whose maximum
would carry over from earlier children, and never from a child of this
process, whose ru_maxrss would start at this process's RSS.  Every output is
checked (see workloads.py); a job counts only when it passes.  Each metric
reports the median over the run's passing samples.

On a shared host the whole machine runs 1.5x slower for minutes at a time,
so a job's seconds depend on when it ran.  The benchmark therefore also times
a fixed pure-Python reference loop (`reference_loop`) in this process after
each set-up probe and after each job, and reports the job's cost in multiples
of the mean of the four reference runs around it: `wall_ref` = job wall time
/ reference wall time and `cpu_ref` = job CPU time / reference CPU time, each
the median over the run's jobs.  A change to the program moves these as it
moves the seconds; a slow phase of the machine slows job and reference alike.
The seconds themselves (`wall_s`, `cpu_s`, `ref_s`) are in the summary line.

With --trace 1 the same timed loop runs, then the job runs once more in this
process under the tracer (see tracing.py), and the per-layer metrics are
reported, including trace.overhead_s = traced total - (wall_s - setup_s).

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the line before it gives median, quartiles and sample count of
every end-to-end metric.  Exit code 1 when any job failed, 2 when the program is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import PER_LAYER, Tracer, TraceError, import_package, run_traced
from workloads import SETUP_ARGV, WORKLOADS, check_setup

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
# A run ends well inside the 180 s a run may take, whatever a child does.
RUN_DEADLINE_S = 165.0
PROBES_PER_ROUND = 3
REFERENCE_ITERATIONS = 150_000

# The metrics BENCHMARK.json gates, and the raw seconds the summary adds.
END_TO_END_UNITS = {"wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}
SUMMARY_UNITS = {**END_TO_END_UNITS, "wall_s": "s", "cpu_s": "s", "ref_s": "s"}


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    failure: str | None


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "CLI_COLOR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_job(args, check, degree: int, deadline: float) -> Job:
    """Run one CLI child under launch.py, drain its pipes, take its own wall
    time, CPU time and peak RSS from the launcher's report, and check it."""
    report_r, report_w = os.pipe()
    argv = [sys.executable, "-S", "-I", str(LAUNCHER), str(report_w),
            sys.executable, "-m", "pillowcase.cli", *args]
    try:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            pass_fds=(report_w,), start_new_session=True,
        )
    finally:
        os.close(report_w)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    out: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in (proc.stdout, proc.stderr):
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                os.killpg(proc.pid, signal.SIGKILL)
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    out[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.wait()
    proc.stdout.close()
    proc.stderr.close()
    if timed_out:
        _wait_for_group(proc.pid)
    report = b""
    while chunk := os.read(report_r, 1 << 12):
        report += chunk
    os.close(report_r)

    stdout = b"".join(out[out_fd]).decode(errors="replace")
    wall = cpu = maxrss_kb = 0.0
    if timed_out:
        failure = "timed out"
    elif not report:
        failure = f"launcher exited {proc.returncode} without a report"
    else:
        wall, cpu, maxrss_kb, code = (float(x) for x in report.split())
        failure = check(stdout, int(code), degree)
    if failure is not None:
        stderr = b"".join(out[err_fd]).decode(errors="replace").strip()
        if stderr:
            failure += f" (stderr: {stderr.splitlines()[-1][:200]})"
    return Job(wall, cpu, maxrss_kb / 1024, failure)


def _wait_for_group(pgid: int) -> None:
    """Wait up to 10 s until every process of a killed job's group has ended."""
    until = time.perf_counter() + 10
    while time.perf_counter() < until:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def reference_loop() -> tuple[float, float]:
    """Time a fixed pure-Python loop of tuple, dict and integer work, about
    0.06 s on a 2.1 GHz Xeon; return its (wall, CPU) seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    counts: dict[tuple[int, int], int] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i * i % 7
    if sum(counts.values()) <= 0:
        raise AssertionError("reference loop computed nothing")
    return time.perf_counter() - wall, time.process_time() - cpu


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pillowcase" / "cli.py").is_file():
        print(f"error: no pillowcase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    degree = workload.degree(args.seed)
    job_args = workload.argv(degree)
    print(f"workload {workload.name}: pillowcase {' '.join(job_args)}", file=sys.stderr)

    jobs: list[Job] = []
    probes: list[Job] = []
    # (wall, CPU) of the reference loop, the mean of its four runs around each job.
    refs: list[tuple[float, float]] = []
    failures: list[str] = []

    def attempt(kind: str, job: Job) -> Job:
        if job.failure is not None:
            failures.append(f"{kind}: {job.failure}")
        return job

    # Warm-up: the probe imports every module, which fills the bytecode and
    # file caches; it is checked but not timed.
    attempt("warm-up probe", run_job(SETUP_ARGV, check_setup, 1, deadline))
    reference_loop()
    attempted = 1
    measure_until = time.perf_counter() + args.seconds
    round_s = 0.0
    # A round starts only if it is expected to end inside the window.
    while not jobs or time.perf_counter() + round_s <= min(measure_until, deadline):
        round_start = time.perf_counter()
        around = []
        for _ in range(PROBES_PER_ROUND):
            probes.append(attempt("probe", run_job(SETUP_ARGV, check_setup, 1, deadline)))
            around.append(reference_loop())
        jobs.append(attempt("job", run_job(job_args, workload.check, degree, deadline)))
        around.append(reference_loop())
        refs.append(tuple(statistics.fmean(t) for t in zip(*around)))
        attempted += PROBES_PER_ROUND + 1
        round_s = time.perf_counter() - round_start

    passed = [(j, ref) for j, ref in zip(jobs, refs) if j.failure is None]
    passed_probes = [p for p in probes if p.failure is None]
    summary = {}
    if passed and passed_probes:
        summary = {
            "wall_ref": summarize([j.wall_s / ref[0] for j, ref in passed]),
            "cpu_ref": summarize([j.cpu_s / ref[1] for j, ref in passed]),
            "peak_rss_mb": summarize([j.peak_rss_mb for j, _ in passed]),
            "setup_s": summarize([p.wall_s for p in passed_probes]),
            "wall_s": summarize([j.wall_s for j, _ in passed]),
            "cpu_s": summarize([j.cpu_s for j, _ in passed]),
            "ref_s": summarize([ref[0] for _, ref in passed]),
        }
        for name, s in summary.items():
            s["unit"] = SUMMARY_UNITS[name]

    metrics = {name: {"value": summary[name]["median"], "unit": unit}
               for name, unit in END_TO_END_UNITS.items() if summary}
    if args.trace and summary and not failures:
        attempted += 1
        tracer = Tracer()
        try:
            modules = import_package(ROOT)
            tracer.install(modules)
            values = run_traced(tracer, modules, workload, degree)
        except TraceError as exc:
            failures.append(f"traced run: {exc}")
        else:
            untraced = summary["wall_s"]["median"] - summary["setup_s"]["median"]
            values["trace.overhead_s"] = values["trace.total_s"] - untraced
            metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
        finally:
            tracer.restore()

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"summary": summary}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
