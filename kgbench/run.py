"""Run one benchmark workload and print its result.

    python3 kgbench/run.py --workload rule_build --seed 1 --seconds 15 --trace 0

Run from the repository root. The command generates the workload's inputs
from ``--seed``, starts a local Ray session, sets up (input generation,
base builds, one untimed warm-up op), then runs a closed loop — one client,
one op at a time — until ``--seconds`` of op time have passed and at least
three ops ran, checking every op's output. The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it is a JSON record of host facts and per-op details.

Scratch files go under ``.kgbench/`` in the current directory; Ray's
session files too, when the socket paths fit (see host.start_ray).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.getcwd()
OBJECT_STORE_MB = 768
MIN_OPS = 3          # the median of fewer ops is too exposed to one stall

E2E_UNITS = {"turns_per_s": "1/s", "setup_s": "s", "peak_pss_mb": "MB",
             "merge_recall": "ratio", "merge_precision": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args, workload_cls=None, setup_kw=None, size="full") -> dict:
    """Set up, measure and tear down one workload; returns the result
    object (the last stdout line) with the detail record under ``_detail``.
    The keyword arguments are for the benchmark's own tests: a workload
    subclass, extra ``setup`` arguments and the ``tiny`` input size."""
    from kgbench import host
    from kgbench.workloads import WORKLOADS

    wl_cls = workload_cls or WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".kgbench", "work", wl_cls.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    facts = host.start_ray(ROOT, wl_cls.ray_cpus,
                           OBJECT_STORE_MB)
    try:
        wl = wl_cls(work, args.seed, size)
        wl.setup(**(setup_kw or {}))
        setup_s = time.perf_counter() - T_START
        if args.trace:
            from kgbench.trace import traced
            result = traced(wl, args.seconds)
        else:
            result = measure(wl, args.seconds, setup_s)
        result["_detail"]["host"] = facts
    finally:
        killed = host.stop_ray()
    result["_detail"]["killed_after_shutdown"] = len(killed)
    # inputs, outputs and Ray's session files (logs, spill) of this run
    for d in (work, os.path.join(ROOT, ".kgbench", "ray")):
        shutil.rmtree(d, ignore_errors=True)
    return result


def measure(wl, seconds: float, setup_s: float) -> dict:
    """The closed loop: ops back to back until ``seconds`` of op time have
    passed and at least ``MIN_OPS`` ops ran."""
    from kgbench.host import PeakPss
    pss = PeakPss()
    ops = []
    pss.start()
    try:
        spent = 0.0
        while spent < seconds or len(ops) < MIN_OPS:
            r = guarded(wl.op)
            ops.append(r)
            spent += r.seconds
    finally:
        pss.stop()
    # a failed op did no useful work: it takes infinite time in the median,
    # so failures can only lower the throughput, never raise it
    op_s = statistics.median(r.seconds if r.ok else math.inf for r in ops)
    recall, precision = wl.merge_quality()
    values = {"turns_per_s": wl.turns_per_op / op_s, "setup_s": setup_s,
              "peak_pss_mb": pss.peak, "merge_recall": recall,
              "merge_precision": precision}
    from kgbench.trace import kernel_rates
    detail = {"workload": wl.name, "seed": wl.seed,
              "turns_per_op": wl.turns_per_op,
              "hardware_reference": kernel_rates(wl.cfg),
              "op_s": [round(r.seconds, 4) for r in ops],
              "op_parts": [r.parts for r in ops if r.parts],
              "failures": [r.detail for r in ops if not r.ok]}
    return result_object(ops, {k: (v, E2E_UNITS[k]) for k, v in values.items()},
                         detail)


def guarded(op, *args):
    """Run one op; an op that raises is a failed op, timed up to the raise,
    and the loop goes on."""
    from kgbench.workloads import OpResult
    t0 = time.perf_counter()
    try:
        return op(*args)
    except Exception as e:  # noqa: BLE001 — the loop must keep running
        import traceback
        traceback.print_exc()
        return OpResult(time.perf_counter() - t0, False,
                        f"{type(e).__name__}: {e}")


def result_object(ops, metrics, detail) -> dict:
    failed = sum(1 for r in ops if not r.ok)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "_detail": detail}


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)     # unwinds through run()'s Ray shutdown


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)
    if not os.path.isdir(os.path.join(ROOT, "agraph_ray")):
        print(f"kgbench: no agraph_ray/ in {ROOT}; run from the repository "
              "root", file=sys.stderr)
        return 2
    # temporary files of this process and every Ray process stay inside
    # the checkout
    os.environ["TMPDIR"] = os.path.join(ROOT, ".kgbench", "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    try:
        import agraph_ray
        from kgbench.workloads import WORKLOADS
    except ImportError as e:
        print(f"kgbench: run from the repository root ({e})", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(agraph_ray.__file__)) != ROOT:
        print(f"kgbench: agraph_ray imported from {agraph_ray.__file__}, "
              f"not from {ROOT}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"kgbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result.pop("_detail"), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
