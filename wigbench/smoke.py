"""Smoke test of the benchmark harness at tiny job sizes.

    python3 wigbench/smoke.py

Runs one traced cycle of tiny jobs covering every job kind and checks that:
  1. every metric is printed by name with its unit, as BENCHMARK.json lists
     them, and the tiny jobs pass their output checks;
  2. a deliberately corrupted reference raises fail_frac above 0;
  3. each traced job's span self times add up to its traced wall time minus
     setup_s, within run.UNACCOUNTED_MAX of its traced wall time;
  4. the known-defect probes run, and a failing probe fails on its value,
     not on a crash or on unreadable output.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import jobs
import run


def tiny_cycle() -> list:
    rng = np.random.default_rng(0)
    return [
        jobs._fidelity_job(rng, 8, 1),
        jobs._fidelity_job(rng, 6, 2),
        jobs._entropy_job(rng, "free", True, 11, 1),
        jobs._entropy_job(rng, "ho", False, 45, 2),   # coarser trap grids show the box-mass defect
        jobs._spectrum_job(rng, 2, 3),
        jobs._trajectory_job(rng, 1, 40, "json"),
        jobs._levels_job(rng, 1),
    ]


def fail(message: str) -> None:
    print(f"smoke: FAIL: {message}")
    sys.exit(1)


def check_metric_names(out: dict) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]]
    printed = [line.split() for line in out["lines"]]
    for name, unit in listed + run.REPORTED_ONLY:
        if not any(len(words) >= 2 and words[0] == name and unit in words[1:] for words in printed):
            fail(f"metric {name} [{unit}] is not printed with its unit")
    shown = out["result"]["metrics"]
    for m in spec["per_layer"]:
        if shown.get(m["name"], {}).get("unit") != m["unit"]:
            fail(f"traced result lacks {m['name']} in {m['unit']}")
    if out["result"]["failed"]:
        fail("tiny jobs failed their checks:\n" + "\n".join(out["lines"]))
    print(f"smoke: ok: {len(listed) + len(run.REPORTED_ONLY)} metrics printed with units, "
          f"{out['result']['attempted']} tiny jobs pass their checks")


def check_corrupted_reference() -> None:
    exact = jobs.flow_reference
    jobs.flow_reference = lambda *a: exact(*a) + 1e-3
    try:
        out = run.measure("smoke-corrupted", 0, 0.0, False, cycles=iter([tiny_cycle()[:2]]))
    finally:
        jobs.flow_reference = exact
    if not out["e2e"]["fail_frac"] > 0 or out["result"]["correct"]:
        fail("a corrupted flow reference left fail_frac at 0")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    shown = {name: m["unit"] for name, m in out["result"]["metrics"].items()}
    if shown != {m["name"]: m["unit"] for m in spec["end_to_end"]}:
        fail(f"untraced result metrics {shown} differ from BENCHMARK.json")
    print(f"smoke: ok: corrupted reference gives fail_frac = {out['e2e']['fail_frac']:g}")


def check_self_times(out: dict) -> None:
    setup_s = out["e2e"]["setup_s"]
    traced = [r for r in out["runs"] if r.traced]
    for r in traced:
        self_s = run.span_self_times(r.spans)
        roots = sum(end - start for _, start, end, parent, _, _ in r.spans if parent < 0)
        if not abs(sum(self_s) - roots) <= 1e-9:
            fail(f"self times do not partition the root spans of {r.job.args[:1]}")
        missed = r.wall_s - setup_s - sum(self_s)
        if not abs(missed) <= run.UNACCOUNTED_MAX * r.wall_s:
            fail(f"{' '.join(r.job.args)}: span self times {sum(self_s):.4f} s, traced wall "
                 f"{r.wall_s:.4f} s, setup_s {setup_s:.4f} s: {missed:.4f} s unaccounted")
    print(f"smoke: ok: self times of {len(traced)} traced jobs match wall minus setup_s "
          f"within {run.UNACCOUNTED_MAX:g} of wall")


def check_known_defects() -> None:
    probes = [p for group in jobs.KNOWN_DEFECTS.values() for p in group]
    work = run.OUT / "smoke-defects"
    work.mkdir(parents=True, exist_ok=True)
    try:
        records = run.run_known_defects(probes, run.job_env(), work)
    finally:
        for leftover in work.iterdir():
            leftover.unlink()
        work.rmdir()
    for d in records:
        if d["fails"] and ": entropy = " not in d["error"]:
            fail(f"known defect {d['defect']} probe did not run to a value: {d['error']}")
    print(f"smoke: ok: {len(records)} known-defect probes run, "
          f"{sum(d['fails'] for d in records)} still fail on their values")


def main() -> int:
    out = run.measure("smoke", 0, 0.0, True, cycles=iter([tiny_cycle()]))
    check_metric_names(out)
    check_self_times(out)
    check_corrupted_reference()
    check_known_defects()
    return 0


if __name__ == "__main__":
    sys.exit(main())
