"""One measured round: a fresh process that runs one workload's scenarios.

    python3 bench/child.py ROOT WORKLOAD SEED OUT_DIR [--trace FILE] [--setup-only]

Like ``talenti-kit run`` it imports the kit, parses the scenario text
and runs it with ``--jobs 1`` in the inherited environment.  It prints
one JSON line: ``ready`` is ``time.monotonic()`` once the kit, numpy and
scipy are imported and the scenarios parsed (the parent holds the clock
reading from before the process started), then the wall and CPU time
of ``run_scenarios``, the peak RSS and each scenario's outcome.  With
``--trace FILE`` the per-layer wrappers are installed before parsing,
their metrics are added to the line and the spans are written to FILE.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    root, workload, seed, out_dir = argv[:4]
    trace_file = argv[argv.index("--trace") + 1] if "--trace" in argv \
        else None
    sys.path.insert(0, str(Path(root) / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    from talenti_kit import cli

    import workloads

    tracer = None
    if trace_file:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    text = workloads.render(workloads.scenarios(workload, int(seed)))
    scenarios = cli.parse_scenarios_text(text, f"bench:{workload}:{seed}")
    ready = time.monotonic()
    if "--setup-only" in argv:
        print(json.dumps({"ready": ready}))
        return 0

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    records = cli.run_scenarios(scenarios, Path(out_dir), jobs=1,
                                label=f"bench:{workload}:{seed}")
    wall = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (usage1.ru_utime - usage0.ru_utime
           + usage1.ru_stime - usage0.ru_stime)
    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "scenarios": [{"name": r.name, "passed": r.passed, "error": r.error,
                       "wall_s": r.wall_time,
                       "failed_checks": [c.name for c in r.checks
                                         if not c.passed]}
                      for r in records],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
