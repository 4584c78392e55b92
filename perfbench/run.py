"""Benchmark launcher: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload er_pages --seed 1 --seconds 3 --trace 0

Prepares the seeded inputs and expected answers in this process, then
starts the measured process (``session.py``) with a fresh Ray session,
waits for it, removes every process it left and prints as the last line of
standard output ``{"correct", "attempted", "failed", "metrics"}``. Works
from any working directory; all files go under ``.perfbench_work/`` in the
repository and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
# the measured process is killed if it has not ended by then
SESSION_TIMEOUT_S = 170.0


def kill_group(pgid: int) -> None:
    """SIGKILL every process left in the group and wait until none is left."""
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def run_session(args, inputs_path: str, work: str) -> dict | None:
    from session import cpu_counters

    result_path = os.path.join(work, "result.json")
    log_path = os.path.join(work, "session.log")
    cmd = [
        sys.executable, os.path.join(HERE, "session.py"),
        "--workload", args.workload, "--inputs", inputs_path,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--started", repr(time.time()), "--started-cpu", "%d,%d" % cpu_counters(),
        "--result", result_path,
    ]
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=log, cwd=REPO, start_new_session=True)
        try:
            proc.wait(timeout=SESSION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"session exceeded {SESSION_TIMEOUT_S:.0f} s", file=sys.stderr)
        finally:
            kill_group(proc.pid)
            proc.wait()
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        return None
    with open(result_path) as f:
        return json.load(f)


def report(trace: int, res: dict) -> dict:
    """The result line: per-layer metrics for a traced run, else the
    end-to-end metrics."""
    if trace:
        from workloads import LAYER_METRICS

        metrics = {name: {"value": 0, "unit": _unit(name)} for name in LAYER_METRICS}
        for name, value in res.get("layers", {}).items():
            metrics[name] = {"value": value, "unit": _unit(name)}
    else:
        op_s = res["op_s"]
        metrics = {
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_s), "unit": "s"},
            "units_per_s": {"value": res["units"] / sum(op_s), "unit": "1/s"},
            "main_rss_peak_mb": {"value": res["main_rss_peak_mb"], "unit": "MB"},
        }
    return {
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("match_yield", "exchange_equivalents", "per_page", "per_input_byte")):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(REPO, "ertransfer_ray")):
        print(f"no ertransfer_ray package next to {HERE}", file=sys.stderr)
        return 2
    sys.path.insert(0, REPO)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    # short, so that Ray's socket paths under it stay within the Unix limit
    work = os.path.join(REPO, ".perfbench_work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        inputs_path = os.path.join(work, "inputs.json")
        with open(inputs_path, "w") as f:
            json.dump(workload_cls.prepare(work, args.seed), f)
        res = run_session(args, inputs_path, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if res is None:
        return 1
    for w in res["wrong"]:
        print(f"wrong output: {w}", file=sys.stderr)
    print(json.dumps(report(args.trace, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
