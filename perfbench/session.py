"""The measured process: one Ray session, one workload.

Started by ``run.py``. Sets up (Ray session, library import, one untimed
warm-up operation), then either times whole rounds of operations for the
run length (``--trace 0``) or runs one untimed round followed by the traced
layer-by-layer pass (``--trace 1``). Writes its result as JSON to
``--result``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import sys
import threading
import time
import traceback

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Unix socket paths are limited to 107 bytes; Ray appends about 65 to its
# temporary directory.
MAX_RAY_TMP_LEN = 40
OBJECT_STORE_BYTES = 512 << 20
# a run ends within this many seconds of the measured process's start
RUN_DEADLINE_S = 150.0


def add_repo_to_path() -> None:
    """Make the library importable here and in every Ray worker, which
    inherits PYTHONPATH when ``ray.init`` starts it, from any working
    directory."""
    sys.path.insert(0, REPO)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO, os.environ.get("PYTHONPATH")) if p
    )


def start_ray(work: str) -> None:
    import ray
    from ray.data import DataContext

    ray_tmp = os.path.join(work, "ray")
    kwargs = {"_temp_dir": ray_tmp} if len(ray_tmp) <= MAX_RAY_TMP_LEN else {}
    # Touch the whole object store at start-up. Otherwise the first
    # operations pay its page faults: the first run_er after a small
    # warm-up measured 10.1 s against 5.5 s for the later ones.
    os.environ["RAY_preallocate_plasma_memory"] = "1"
    # Nothing here reads Ray's metrics; exporting them is background work
    # on the one CPU (five-seed spread of ops_sf01's op_p50_s: 0.133 with
    # it, 0.082 without).
    os.environ["RAY_enable_metrics_collection"] = "0"
    ray.init(
        num_cpus=1,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        **kwargs,
    )
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def cpu_counters() -> tuple[int, int]:
    """(busy, stolen) clock ticks of all CPUs of this machine since boot.

    Busy is user + nice + system + irq + softirq time; stolen is the time
    the hypervisor ran another machine while one of these CPUs wanted to
    run. (0, 0) where ``/proc/stat`` cannot be read."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    return v[0] + v[1] + v[2] + v[5] + v[6], v[7]


def unstolen(wall_s: float, before: tuple[int, int], after: tuple[int, int]) -> float:
    """``wall_s`` less the share of it that the hypervisor withheld from
    this machine's runnable CPUs between the two ``cpu_counters()``.

    On a shared host the steal share swung between 9 % and 36 % for minutes
    at a time and wall times with it (er_pages op_p50_s: 5.3 s at 9 %, 7.1 s
    at 26 %); across five seeds the time without the stolen share spread
    0.084 (IQR / median) where wall time spread 0.237."""
    busy, stolen = after[0] - before[0], after[1] - before[1]
    if busy + stolen <= 0:
        return wall_s
    return wall_s * (1.0 - stolen / (busy + stolen))


class TimedOut(Exception):
    pass


def call_with_limit(fn, limit_s: float):
    """Run ``fn`` in a daemon thread; raise TimedOut after ``limit_s``."""
    box: dict = {}

    def target():
        try:
            box["out"] = fn()
        except BaseException as e:  # noqa: BLE001 - re-raised in the caller
            box["err"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(max(0.0, limit_s))
    if t.is_alive():
        raise TimedOut(f"exceeded {limit_s:.0f} s")
    if "err" in box:
        raise box["err"]
    return box["out"]


def run_rounds(workload, seconds: float, started: float, max_rounds: int | None):
    """Time whole rounds until ``seconds`` have passed (or ``max_rounds``
    rounds ran). Returns (records, attempted, failed, wrong, stuck) where
    each record is ``(op, wall seconds, output, unstolen seconds)`` of an
    operation that passed."""
    records, attempted, failed, wrong = [], 0, 0, []
    t_begin = time.perf_counter()
    rounds = 0
    stuck = False
    while not stuck and (max_rounds is None or rounds < max_rounds):
        if max_rounds is None and rounds and time.perf_counter() - t_begin >= seconds:
            break
        rounds += 1
        for op in workload.round():
            attempted += 1
            if stuck:
                failed += 1  # the rest of a round whose operation hung
                continue
            limit = min(workload.op_limit_s, started + RUN_DEADLINE_S - time.time())
            c0 = cpu_counters()
            t0 = time.perf_counter()
            try:
                out = call_with_limit(op.run, limit)
            except TimedOut as e:
                failed += 1
                stuck = True
                print(f"{op.name}: {e}", file=sys.stderr)
                continue
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                failed += 1
                traceback.print_exc()
                continue
            dt = time.perf_counter() - t0
            c1 = cpu_counters()
            problems = op.check(out)
            if problems:
                failed += 1
                wrong += [f"{op.name}: {p}" for p in problems]
                continue
            records.append((op, dt, out, unstolen(dt, c0, c1)))
    return records, attempted, failed, wrong, stuck


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--started", type=float, required=True,
                    help="time.time() at which the launcher started this process")
    ap.add_argument("--started-cpu", required=True,
                    help="cpu_counters() at that moment, as 'busy,stolen'")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    add_repo_to_path()
    from workloads import WORKLOADS

    with open(args.inputs) as f:
        workload = WORKLOADS[args.workload](json.load(f))
    start_ray(os.path.dirname(args.inputs))
    import ray

    try:
        workload.warm_up()
        setup_s = unstolen(
            time.time() - args.started,
            tuple(int(x) for x in args.started_cpu.split(",")),
            cpu_counters(),
        )
        max_rounds = 1 if args.trace else None
        records, attempted, failed, wrong, stuck = run_rounds(
            workload, args.seconds, args.started, max_rounds
        )
        result = {"attempted": attempted, "failed": failed, "wrong": wrong}
        if args.trace:
            # the traced pass is one more operation, with the same limits;
            # it needs a clean untraced round to compare with
            result["attempted"] += 1
            traced_ok = False
            if records and not stuck and not failed:
                limit = min(workload.op_limit_s * 2, args.started + RUN_DEADLINE_S - time.time())
                try:
                    metrics, problems = call_with_limit(lambda: workload.trace(records), limit)
                    metrics["trace.untraced_wall_s"] = sum(r[1] for r in records)
                    result["layers"] = metrics
                    result["wrong"] += problems
                    traced_ok = not problems
                except Exception:  # noqa: BLE001 - TimedOut included; counted, not fatal
                    traceback.print_exc()
            result["failed"] += not traced_ok
        else:
            # a failed operation counts as taking its whole time limit
            result["setup_s"] = setup_s
            result["op_s"] = [r[3] for r in records] + [workload.op_limit_s] * failed
            result["units"] = sum(r[0].units for r in records)
            result["main_rss_peak_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        with open(args.result, "w") as f:
            json.dump(result, f)
    finally:
        # a hung operation's thread may hold Ray; shut down from a daemon
        # thread so this process still exits
        t = threading.Thread(target=ray.shutdown, daemon=True)
        t.start()
        t.join(30)
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
