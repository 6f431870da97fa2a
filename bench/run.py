"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload cone-sweep --seed 1 --seconds 30 --trace 0

Each round answers the workload's whole query list once in a fresh
process (bench/worker.py), so no round sees another's caches.  Rounds
repeat while the rounds so far predict that the next one ends within
--seconds; there is always at least one.  Set-up is timed in every round
and, when fewer than three rounds ran, in extra set-up-only processes.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics with --trace 0, the per-layer
metrics of traced rounds with --trace 1).  Results and traces are also
written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import median_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("cone-sweep", "certify", "obstruct")
MIN_SETUPS = 3
# every run, set-up probes included, must end well within 180 s
RUN_LIMIT_S = 170.0


def spawn(args, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--out-dir", str(OUT), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("run limit reached before a worker could start")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    query_ms = [t for r in rounds for t in r["query_ms"]]
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(r["run_s"] for r in rounds), "s"),
        "query_p50_ms": (statistics.median(query_ms), "ms"),
        "query_p90_ms": (statistics.quantiles(query_ms, n=10)[8], "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def per_layer(rounds: list[dict]) -> dict:
    units = {"self_s": "s", "run_s": "s", "runs_per_planarity": "ratio"}
    out = {}
    for name, value in median_metrics([r["layers"] for r in rounds]).items():
        out[name] = {"value": value, "unit": units.get(name.rsplit(".", 1)[1], "count")}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "surfembed" / "__init__.py").is_file():
        print(f"error: no surfembed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rounds = []
    while True:
        rounds.append(spawn(args, deadline))
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(spawn(args, deadline, "--setup-only")["setup_s"])

    failures = [f for r in rounds for f in r["failures"]]
    rejected = [q for r in rounds for q in r["rejected"]]
    unexpected = [f for f in failures if not f["known_fault"]]
    result = {
        "correct": not rejected and not unexpected,
        "attempted": sum(len(r["query_ms"]) for r in rounds),
        "failed": len(failures),
        "metrics": per_layer(rounds) if args.trace else end_to_end(rounds, setups),
    }
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{len(rounds[0]['query_ms'])} queries each, {len(setups)} set-ups")
    for f in failures[: len(rounds[0]["failures"])]:
        print(f"  failed {f['query']}: {f['error']}" + (f" [{f['known_fault']}]" if f["known_fault"] else ""))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "failures": failures, "rounds": len(rounds)}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
