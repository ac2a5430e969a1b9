"""One round of a benchmark workload, in a fresh interpreter.

Usage: python3 bench/round.py PLAN.json RESULT.json

The plan lists the experiments as ``gradbound.cli.main`` argument vectors,
in order, plus the source directory to import gradbound from and whether to
trace.  The round imports gradbound (with numpy and scipy), records when it
is ready, calls ``main`` once per experiment exactly as
``scripts/run_desk_experiments.py`` does, and writes its exit codes and
timings, its peak resident set and, when traced, its spans to RESULT.json.

An empty experiment list makes a set-up probe: import, record, exit.
Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so the
parent can subtract the moment it started this process.
"""

import json
import os
import resource
import sys
import time


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as f:
        plan = json.load(f)
    src = plan["src"]
    sys.path.insert(0, src)

    import numpy  # noqa: F401
    import scipy.special  # noqa: F401
    import gradbound
    from gradbound import cli

    ready = time.perf_counter()
    package_dir = os.path.dirname(os.path.abspath(gradbound.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(src):
        print(f"gradbound was imported from {package_dir}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    call = cli.main
    if plan.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        call = tracer.wrap("cli.main", cli.main)

    runs = []
    for argv in plan["experiments"]:
        t0 = time.perf_counter()
        code = call(argv)
        runs.append({"experiment": argv[0], "exit": code, "start": t0,
                     "end": time.perf_counter()})

    result = {"ready": ready, "runs": runs,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["output_bytes"] = sum(os.path.getsize(argv[argv.index("--out") + 1])
                                     for argv in plan["experiments"])
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
