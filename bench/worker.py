"""One round of one workload, in a fresh process.

Set-up (importing surfembed, building the inputs, writing the graph
files) is timed from the first line of this file.  The round then answers
every query once, in order, and checks each answer.  It prints one JSON
object with the round's figures; bench/run.py starts it and reads that.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def run_round(queries, tracer) -> dict:
    from workloads import Unanswered

    times, failures, rejected = [], [], []
    start = time.perf_counter()
    for q in queries:
        if tracer is not None:
            tracer.query = q.name
        t0 = time.perf_counter()
        try:
            answer, error = q.run(), None
        except Exception as exc:  # a crash is a failed query, not a failed run
            answer, error = None, f"{type(exc).__name__}: {exc}"[:300]
        times.append((time.perf_counter() - t0) * 1000.0)
        if error is None:
            if tracer is not None:
                tracer.checking = True
            try:
                q.check(answer)
            except Unanswered as exc:
                error = f"no answer: {exc}"
            except Exception as exc:  # CheckFailure, or an answer of the wrong shape
                error = f"rejected: {type(exc).__name__}: {exc}"
                rejected.append(q.name)
            finally:
                if tracer is not None:
                    tracer.checking = False
        if error is not None:
            failures.append({"query": q.name, "error": error, "known_fault": q.known_fault})
    return {
        "run_s": time.perf_counter() - start,
        "query_ms": times,
        "failures": failures,
        "rejected": rejected,
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out-dir", required=True)
    args = p.parse_args()

    import surfembed  # noqa: F401  (importing the library is part of set-up)
    import workloads

    workdir = Path(args.out_dir) / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        queries = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        result = run_round(queries, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics(result["run_s"])
        tracer.write(str(Path(args.out_dir) / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
