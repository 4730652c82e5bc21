"""talenti-kit benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload comparison --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (the kit is imported from
``src/``; nothing needs installing).  Each round is a fresh Python
process (``bench/child.py``) that imports the kit, parses the seeded
scenario text and runs it with ``--jobs 1``, as ``talenti-kit run``
does for a user.  Rounds start while the next one is expected to end
within ``--seconds``; at least one always runs.  Every round's tables
are checked against the oracles and properties of ``bench/oracles.py``,
and only the fixed cases in ``workloads.EXPECTED_FAILURES`` may fail,
each on its one named check.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over rounds; ``setup_s`` also over the set-up-only processes
that fill the rest of ``--seconds``, at least two).  With ``--trace 1`` rounds alternate untraced and traced
processes and the line reports the per-layer metrics of the traced
ones, plus ``trace.overhead_s``, the traced minus the untraced median
``wall_s``.  Run directories and result files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 2        # least set-up-only processes per untraced run
CHILD_TIMEOUT_S = 150   # one round; a run must end within 180 s

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"]
         for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class BenchError(RuntimeError):
    """A round that could not be measured."""


def _child(workload: str, seed: int, out_dir: Path, extra=()) -> dict:
    """Run one child process; returns its JSON line plus setup_s."""
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), workload,
           str(seed), str(out_dir), *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"round exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"round exited with {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - start
    out["elapsed_s"] = time.monotonic() - start
    return out


def _check_round(specs, out_dir: Path, result: dict, oracle_vals) -> tuple:
    """(failed scenarios, problems) for one round's outputs."""
    problems, failed = [], 0
    for (name, kv), rec in zip(specs, result["scenarios"]):
        if rec["name"] != name:
            problems.append(f"record {rec['name']} out of order")
            continue
        if not rec["passed"]:
            failed += 1
            expected = workloads.EXPECTED_FAILURES.get(name)
            if rec["error"] or rec["failed_checks"] != [expected]:
                problems.append(f"{name}: unexpected failure "
                                f"{rec['error'] or rec['failed_checks']}")
            continue
        if name in workloads.EXPECTED_FAILURES:
            problems.append(f"{name}: expected to fail "
                            f"{workloads.EXPECTED_FAILURES[name]}, passed")
        problems += [f"{name}: {msg}" for msg in
                     oracles.check_scenario(name, kv, out_dir, oracle_vals)]
    return failed, problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    specs = workloads.scenarios(workload, seed)
    oracle_vals = oracles.oracle_values(specs)
    base = HERE / "out"
    tag = f"{workload}-s{seed}-t{int(trace)}"
    work = base / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    plain, traced, problems = [], [], []
    attempted = failed = 0
    longest = 0.0
    try:
        setups = []
        while True:
            use_trace = trace and len(traced) < len(plain)
            out_dir = work / f"round{len(plain) + len(traced)}"
            extra = ("--trace", str(base / f"trace-{tag}.json")) \
                if use_trace else ()
            res = _child(workload, seed, out_dir, extra)
            res["traced"] = bool(use_trace)
            nfail, probs = _check_round(specs, out_dir, res, oracle_vals)
            shutil.rmtree(out_dir)
            attempted += len(specs)
            failed += nfail
            problems += probs
            (traced if use_trace else plain).append(res)
            setups.append(res["setup_s"])
            longest = max(longest, res["elapsed_s"])
            pair_open = trace and len(traced) < len(plain)
            if not pair_open and time.monotonic() - start + longest > seconds:
                break
        # set-up-only processes (import and parse, then exit) fill the
        # time the rounds left; setup_s is reported by untraced runs only
        probes, probe_s = 0, 0.0
        while not trace and (probes < SETUP_PROBES or
                             time.monotonic() - start + probe_s <= seconds):
            res = _child(workload, seed, work, ("--setup-only",))
            setups.append(res["setup_s"])
            probe_s = max(probe_s, res["elapsed_s"])
            probes += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    med = lambda rs, key: statistics.median(r[key] for r in rs)
    if trace:
        metrics = {k: statistics.median(r["layers"][k] for r in traced)
                   for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = med(traced, "wall_s") - \
            med(plain, "wall_s")
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": med(plain, "wall_s"),
                   "cpu_s": med(plain, "cpu_s"),
                   "peak_rss_mb": med(plain, "peak_rss_mb")}
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    }
    record = dict(summary, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, setups=setups,
                  rounds=[{k: r[k] for k in ("traced", "setup_s", "wall_s",
                                              "cpu_s", "peak_rss_mb",
                                              "elapsed_s")}
                          | {"scenarios": {s["name"]: s["wall_s"]
                                           for s in r["scenarios"]}}
                          for r in plain + traced])
    (base / f"result-{tag}.json").write_text(json.dumps(record, indent=1),
                                            encoding="utf-8")
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "talenti_kit" / "cli.py").is_file():
        print(f"no kit sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    try:
        summary = run(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
