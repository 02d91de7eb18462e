"""wigsim benchmark: seeded CLI jobs, one fresh interpreter per job.

    python3 wigbench/run.py --workload fidelity-curves --seed 1 --seconds 30 --trace 0

Closed loop, one client: jobs run one at a time, each as its own `wigsim`
process (the console script's `main`, or wigbench/gqw_levels.py for the
public-API job), with the BLAS pool pinned to one thread.  Whole cycles of
the workload (see jobs.py) run until another cycle would overrun --seconds.
Every job's stdout is then checked against the benchmark's own reference.

--trace 0 prints the end-to-end metrics; --trace 1 runs each job untraced
and then traced (spans.py) and prints the per-layer metrics, per traced job,
and the tracing overhead.  The last stdout line is one JSON object; the
lines before it give every metric with its unit, the job counts and an
environment stamp.  A record of the run, with the SHA-256 of every job's
stdout, is written to wigbench/out/runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import jobs as jobs_mod

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_THREADS = 1          # the job's main thread plus this harness: nproc = 2
SETUP_SAMPLES = 9
JOB_TIMEOUT_S = 60.0
UNACCOUNTED_MAX = 0.25    # |traced wall - setup_s - span self times| / traced wall
CLI_ENTRY = "import sys; from wigsim.cli import main; sys.exit(main())"

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
]
# printed with the end-to-end metrics but not part of the JSON result:
# op_tail_s exists only for runs of at least 20 jobs, fail_frac is 0 on
# every workload (the JSON result carries attempted and failed instead)
REPORTED_ONLY = [("op_tail_s", "s"), ("fail_frac", "ratio")]

PER_LAYER = [
    ("specfun.gauss_hermite.calls", "count"),
    ("specfun.gauss_hermite.self_s", "s"),
    ("specfun.gauss_hermite.repeat_frac", "ratio"),
    ("specfun.airy_zero.calls", "count"),
    ("specfun.airy_zero.self_s", "s"),
    ("specfun.airy_ai.calls", "count"),
    ("specfun.airy_ai.points", "count"),
    ("specfun.airy_ai.self_s", "s"),
    ("specfun.laguerre.calls", "count"),
    ("specfun.laguerre.points", "count"),
    ("specfun.laguerre.self_s", "s"),
    ("quadrature.integrate.calls", "count"),
    ("quadrature.integrate.nodes", "count"),
    ("quadrature.integrate.slabbed_frac", "ratio"),
    ("quadrature.integrate.self_s", "s"),
    ("quadrature.integrate.nodes_per_s", "1/s"),
    ("quadrature.block_jobs.peak_rss_mb", "MB"),
    ("quadrature.slab_jobs.peak_rss_mb", "MB"),
    ("measures.integrand.self_s", "s"),
    ("measures.fidelity_quadrature.calls", "count"),
    ("measures.shannon_entropy.calls", "count"),
    ("measures.self_s", "s"),
    ("wigner.value.calls", "count"),
    ("wigner.value.points", "count"),
    ("wigner.value.self_s", "s"),
    ("wigner.value.points_per_row", "ratio"),
    ("wigner.GQWState.calls", "count"),
    ("wigner.GQWState.self_s", "s"),
    ("wigner.stargen_residual.self_s", "s"),
    ("dynamics.evolve.calls", "count"),
    ("dynamics.evolve.points", "count"),
    ("dynamics.evolve.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.out_bytes", "B"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.jobs", "count"),
]


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout


def job_env() -> dict:
    """The caller's environment with the settings every job runs under.

    No bytecode is written, so every job compiles wigsim from source
    whatever the caller's setting and the checkout stays as it was."""
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads, PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def spawn(argv: list, stdout_path: Path, env: dict) -> tuple:
    """Run one process to completion; return (wall s, peak RSS MB, exit code).

    Wall time runs from spawn to reaping.  Peak RSS is the child's own
    rusage from wait4."""
    fd_out = os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    fd_err = os.open(stdout_path.with_suffix(".err"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                     0o644)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, fd_out, 1), (os.POSIX_SPAWN_DUP2, fd_err, 2)])
    finally:
        os.close(fd_out)
        os.close(fd_err)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
    except JobTimeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        code = -signal.SIGKILL
    except BaseException:
        os.kill(pid, signal.SIGKILL)      # interrupted or terminated: leave no job behind
        os.wait4(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    return wall, usage.ru_maxrss / 1024.0, code


@dataclass
class JobRun:
    job: jobs_mod.Job
    cycle: int
    traced: bool
    wall_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: int = 0
    rows: int = 0
    out_bytes: int = 0
    sha256: str = ""
    error: str = ""
    spans: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.error


def job_argv(job: jobs_mod.Job, spans_path: Path | None) -> list:
    py = sys.executable
    if spans_path is not None:
        return [py, str(BENCH / "spans.py"), str(spans_path), job.target, *job.args]
    if job.target == "cli":
        return [py, "-c", CLI_ENTRY, *job.args]
    return [py, str(BENCH / "gqw_levels.py"), *job.args]


def run_cycles(cycles, seconds: float, traced: bool, env: dict, work: Path) -> tuple:
    """Closed loop over whole cycles until another cycle would pass the deadline.

    In a traced run every job runs untraced and then traced.  Between jobs,
    SETUP_SAMPLES fresh interpreters that only import wigsim.cli are timed,
    spread over the run so that setup_s sees the same machine as the jobs.
    Returns (job runs, setup wall times)."""
    setup_argv = [sys.executable, "-c", "import wigsim.cli"]

    def probe():
        wall, _, code = spawn(setup_argv, work / "setup.out", env)
        if code != 0:
            raise RuntimeError("cannot import wigsim.cli: "
                               + (work / "setup.err").read_text()[-400:])
        return wall

    probe()                               # warms the file cache; not recorded
    setup = [probe()]
    runs = []
    start = time.perf_counter()
    for index, cycle in enumerate(cycles):
        cycle_start = time.perf_counter()
        for job in cycle:
            for with_spans in ((False, True) if traced else (False,)):
                n = len(runs)
                out = work / f"job{n}.out"
                spans_path = work / f"job{n}.spans" if with_spans else None
                run = JobRun(job, index, with_spans)
                run.wall_s, run.rss_mb, run.exit_code = spawn(job_argv(job, spans_path), out, env)
                runs.append(run)
            elapsed = time.perf_counter() - start
            if seconds and len(setup) < 1 + elapsed / seconds * (SETUP_SAMPLES - 1):
                setup.append(probe())
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(probe())
    return runs, setup


def check_runs(runs: list, work: Path) -> None:
    """Digest and check every job's stdout; load spans of traced jobs."""
    for n, run in enumerate(runs):
        out = work / f"job{n}.out"
        data = out.read_bytes()
        run.out_bytes = len(data)
        run.sha256 = hashlib.sha256(data).hexdigest()
        if run.exit_code != 0:
            err = out.with_suffix(".err").read_text(errors="replace").strip()
            run.error = f"exit {run.exit_code}: {err[-300:]}"
        else:
            try:
                run.rows = jobs_mod.check(run.job, data.decode())
            except jobs_mod.CheckFailed as exc:
                run.error = str(exc)
        if run.traced:
            untraced = runs[n - 1]
            if run.sha256 != untraced.sha256 and not run.error:
                run.error = "traced output differs from untraced output"
            spans = out.with_suffix(".spans")
            if spans.exists():
                run.spans = json.loads(spans.read_text())
                spans.unlink()
        out.unlink()
        out.with_suffix(".err").unlink()


def run_known_defects(probes: list, env: dict, work: Path) -> list:
    """Run and check each known-defect probe once; return one record each."""
    records = []
    for n, (tag, job) in enumerate(probes):
        out = work / f"defect{n}.out"
        _, _, code = spawn(job_argv(job, None), out, env)
        try:
            if code != 0:
                raise jobs_mod.CheckFailed(f"exit {code}")
            jobs_mod.check(job, out.read_text())
            error = ""
        except jobs_mod.CheckFailed as exc:
            error = str(exc)
        records.append({"defect": tag, "args": list(job.args), "fails": bool(error),
                        "error": error})
    return records


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(runs: list, setup: list) -> dict:
    plain = [r for r in runs if not r.traced]
    walls = sorted(r.wall_s for r in plain)
    failed = sum(1 for r in plain if not r.ok)
    metrics = {
        "setup_s": _median(setup),
        "op_p50_s": _median(walls),
        "rows_per_s": sum(r.rows for r in plain) / sum(walls),
        "peak_rss_mb": max(r.rss_mb for r in plain),
        "fail_frac": failed / len(plain),
    }
    if len(walls) >= 20:
        k = len(walls) - 10
        metrics["op_tail_s"] = walls[k - 1]
        metrics["op_tail_pct"] = 100.0 * k / len(walls)
    return metrics


def span_self_times(spans: list) -> list:
    """Self time of each span: its duration minus its child spans' durations."""
    self_s = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    return self_s


def per_layer(runs: list, setup_s: float) -> dict:
    """Per-layer metrics per traced job, from the traced runs' spans.

    A traced run alternates untraced and traced runs of the same job."""
    pairs = [(plain, traced) for plain, traced in zip(runs[0::2], runs[1::2]) if traced.spans]
    acc: dict = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    block_rss, slab_rss = [0.0], [0.0]
    unaccounted = covered = 0.0
    for plain, run in pairs:
        spans = run.spans
        self_s = span_self_times(spans)
        orders_seen = set()
        integrate_calls = slabbed_calls = 0
        for i, (name, start, end, parent, count, integrand_calls) in enumerate(spans):
            add(name + ".self_s", self_s[i])
            if name.startswith("measures."):
                add("measures.self_s", self_s[i])
            if not (name == "wigner.value" and parent >= 0 and spans[parent][0] == name):
                add(name + ".calls", 1)
                add(name + ".points", count)
            if name == "specfun.gauss_hermite":
                add(name + ".repeats", count in orders_seen)
                orders_seen.add(count)
            elif name == "quadrature.integrate":
                integrate_calls += 1
                slabbed_calls += integrand_calls > 1
                add(name + ".inclusive_s", end - start)
        add("quadrature.integrate.slabbed", slabbed_calls)
        if integrate_calls:
            (slab_rss if slabbed_calls else block_rss).append(plain.rss_mb)
        add("cli.out_bytes", run.out_bytes)
        add("rows", run.rows)
        roots = sum(end - start for _, start, end, parent, _, _ in spans if parent < 0)
        unaccounted += run.wall_s - setup_s - roots
        covered += run.wall_s - setup_s

    n = max(len(pairs), 1)

    def ratio(num, den):
        return acc.get(num, 0.0) / acc[den] if acc.get(den) else 0.0

    metrics = {name: acc.get(name, 0.0) / n for name, _ in PER_LAYER}
    metrics.update({
        "specfun.gauss_hermite.repeat_frac": ratio("specfun.gauss_hermite.repeats",
                                                   "specfun.gauss_hermite.calls"),
        "quadrature.integrate.nodes": acc.get("quadrature.integrate.points", 0.0) / n,
        "quadrature.integrate.slabbed_frac": ratio("quadrature.integrate.slabbed",
                                                   "quadrature.integrate.calls"),
        "quadrature.integrate.nodes_per_s": ratio("quadrature.integrate.points",
                                                  "quadrature.integrate.inclusive_s"),
        "quadrature.block_jobs.peak_rss_mb": max(block_rss),
        "quadrature.slab_jobs.peak_rss_mb": max(slab_rss),
        "wigner.value.points_per_row": ratio("wigner.value.points", "rows"),
        "trace.overhead_s": (_median([t.wall_s for _, t in pairs])
                             - _median([p.wall_s for p, _ in pairs])),
        "trace.unaccounted_frac": unaccounted / covered if covered else 0.0,
        "trace.jobs": float(len(pairs)),
    })
    return metrics


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment_stamp(workload: str, seed: int, plain: list) -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wigsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "jobs": len(plain),
        "cycles": plain[-1].cycle + 1,
        "jobs_per_cycle": sum(1 for r in plain if r.cycle == 0),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def report_lines(stamp: dict, e2e: dict, layers: dict | None, runs: list,
                 defects: list) -> list:
    plain = [r for r in runs if not r.traced]
    n = len(plain)
    failed = [r for r in plain if not r.ok]
    lines = [f"wigbench {stamp['workload']} seed={stamp['seed']}: {n} jobs in "
             f"{stamp['cycles']} cycles of {stamp['jobs_per_cycle']}",
             "env: " + " ".join(f"{k}={v}" for k, v in stamp.items()
                                if k not in ("workload", "seed"))]
    units = dict(END_TO_END + REPORTED_ONLY)
    notes = {"setup_s": f"median of {SETUP_SAMPLES} imports of wigsim.cli",
             "op_p50_s": f"median of {n} jobs",
             "rows_per_s": f"{sum(r.rows for r in plain)} rows",
             "peak_rss_mb": "largest single job",
             "fail_frac": f"{len(failed)} of {n} jobs"}
    if "op_tail_s" in e2e:
        notes["op_tail_s"] = f"p{e2e['op_tail_pct']:.1f}, 10 jobs above it"
    for name, unit in END_TO_END + REPORTED_ONLY:
        value = e2e.get(name)
        shown = f"{value:.6g}" if value is not None else "n/a (fewer than 20 jobs)"
        lines.append(f"  {name:<14} {shown:>12} {units[name]:<7} {notes.get(name, '')}")
    if layers is not None:
        lines.append("per-layer metrics, per traced job:")
        for name, unit in PER_LAYER:
            lines.append(f"  {name:<36} {layers[name]:>14.6g} {unit}")
    for run in failed[:3]:
        lines.append(f"FAILED {' '.join(run.job.args)}: {run.error}")
    for d in defects:
        outcome = f"still fails: {d['error']}" if d["fails"] else "now passes its check"
        lines.append(f"known defect {d['defect']} (untimed, not attempted): "
                     f"{' '.join(d['args'])}: {outcome}")
    first = [r.sha256 for r in plain if r.cycle == 0]
    combined = hashlib.sha256("".join(first).encode()).hexdigest()
    lines.append(f"SHA-256 over the stdout digests of the {len(first)} jobs of cycle 1: {combined}")
    return lines


def write_record(stamp: dict, e2e: dict, layers: dict | None, runs: list,
                 defects: list) -> Path:
    runs_dir = OUT / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    when = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = runs_dir / (f"{stamp['workload']}-seed{stamp['seed']}-"
                       f"trace{int(layers is not None)}-{when}-{os.getpid()}.json")
    record = {
        "environment": stamp,
        "end_to_end": e2e,
        "per_layer": layers,
        "jobs": [{"cycle": r.cycle, "traced": r.traced, "args": list(r.job.args),
                  "target": r.job.target, "wall_s": r.wall_s, "rss_mb": r.rss_mb,
                  "exit_code": r.exit_code, "rows": r.rows, "out_bytes": r.out_bytes,
                  "stdout_sha256": r.sha256, "error": r.error} for r in runs],
        "known_defects": defects,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def measure(workload: str, seed: int, seconds: float, traced: bool, cycles=None) -> dict:
    """Run one benchmark measurement and return its result object.

    cycles overrides the workload's generated cycles (the smoke test)."""
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = job_env()
    try:
        if cycles is None:
            cycles = jobs_mod.cycles(workload, seed)
        runs, setup = run_cycles(cycles, seconds, traced, env, work)
        check_runs(runs, work)
        defects = run_known_defects(jobs_mod.KNOWN_DEFECTS.get(workload, []), env, work)
    finally:
        for leftover in work.iterdir():
            leftover.unlink()
        work.rmdir()
    e2e = end_to_end(runs, setup)
    layers = per_layer(runs, e2e["setup_s"]) if traced else None
    stamp = environment_stamp(workload, seed, [r for r in runs if not r.traced])
    lines = report_lines(stamp, e2e, layers, runs, defects)
    record = write_record(stamp, e2e, layers, runs, defects)
    lines.append(f"record: {record.relative_to(ROOT)}")
    failed = sum(1 for r in runs if not r.ok)
    if traced:
        shown = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        shown = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    return {"lines": lines, "runs": runs, "e2e": e2e, "layers": layers, "defects": defects,
            "result": {"correct": failed == 0, "attempted": len(runs), "failed": failed,
                       "metrics": shown}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "wigsim" / "cli.py").is_file():
        print(f"error: no wigsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = measure(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
