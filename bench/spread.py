"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workloads comparison,eigen-holder --seeds 1-10

Every run is untraced (``--trace 0``).  For every workload and
end-to-end metric it prints the median of the per-run values and the
quartile spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the bound from
``BENCHMARK.json``.  Runs are sequential; their raw result lines
are appended to ``bench/out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def machine() -> dict:
    """nproc, library versions, OpenBLAS threads and the git sha."""
    import os
    import platform

    import numpy
    import scipy
    # numpy's OpenBLAS starts its worker threads on import
    tasks = Path("/proc/self/task")
    threads = len(list(tasks.iterdir())) if tasks.is_dir() else None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads_after_numpy_import": threads, "git_sha": sha or None}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = HERE / "out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    print(json.dumps(machine()), flush=True)
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT)
            elapsed = time.monotonic() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res.update(workload=workload, seed=seed, elapsed_s=elapsed)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(res) + "\n")
            runs.append(res)
            vals = " ".join(f"{k}={v['value']:.4g}"
                            for k, v in res["metrics"].items())
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {vals} "
                  f"({elapsed:.1f} s)",
                  flush=True)
        if len(runs) < 2:
            continue
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            print(f"{workload} {name}: median {statistics.median(vals):.4g} "
                  f"spread {spread(vals):.2%} (bound {bound:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
