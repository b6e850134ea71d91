"""One `lrdsim run` in a fresh process, timed from outside the program.

Usage: python3 child.py REQUEST.json

The request names the checkout root, the config, the log path, the seed,
the thread count, whether to trace, and where to write the result. The
result holds set-up time (from just before `import lrdsim` until the
Engine is constructed), run time (from the first step until `cli.main`
returns with the log closed), the wall time between consecutive records of
`Engine.records()`, peak RSS, and the spans of a traced run. The process
exits with `lrdsim run`'s exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from tracing import Tracer


def main(request_path: str) -> int:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    sys.path.insert(0, str(Path(req["root"]) / "src"))

    start = time.perf_counter()
    from lrdsim import cli

    marks: dict = {}
    step_s: list = []
    real_engine = cli.Engine

    def timed_engine(*args, **kwargs):
        engine = real_engine(*args, **kwargs)
        marks["setup_end"] = time.perf_counter()
        records = engine.records

        def timed_records():
            last = marks["first_step"] = time.perf_counter()
            for record in records():
                now = time.perf_counter()
                step_s.append(now - last)
                last = now
                yield record

        engine.records = timed_records
        return engine

    tracer = Tracer() if req["trace"] else None
    if tracer is not None:
        tracer.install()
    cli.Engine = timed_engine
    try:
        code = cli.main([
            "run",
            "--config", req["config"],
            "--out", req["log"],
            "--threads", str(req["threads"]),
            "--seed", str(req["seed"]),
        ])
        end = time.perf_counter()
    finally:
        cli.Engine = real_engine
        if tracer is not None:
            tracer.uninstall()

    result = {
        "exit_code": code,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "step_s": step_s,
    }
    if "setup_end" in marks:
        result["setup_s"] = marks["setup_end"] - start
    if "first_step" in marks:
        result["run_s"] = end - marks["first_step"]
    if tracer is not None:
        result.update(spans=tracer.spans, counts=tracer.counts, absent=tracer.absent)
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
