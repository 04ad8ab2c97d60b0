"""Ray session lifetime, process-tree memory sampling and host facts.

Every process the benchmark starts is a descendant of the benchmark
process (Ray's GCS server and raylet are spawned by ``ray.init``, workers
by the raylet), so walking ``/proc`` from its pid finds all of them:
for the PSS sum while the session runs, and to wait for each to exit
after ``ray.shutdown()``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Dict, List, Optional

# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/<name>
_SOCKET_SUFFIX = 75


def nproc() -> int:
    """What GNU ``nproc`` prints: the CPUs this process may run on, capped
    by ``OMP_NUM_THREADS`` when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def descendants(root: int) -> List[int]:
    """Pids of every live descendant of ``root``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may contain spaces; fields resume after ")"
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def pss_mb(pids: List[int]) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class PeakPss:
    """Background sampler of this process's and its descendants' summed
    PSS.

    ``start()``/``stop()`` bracket the region of interest; ``peak`` is the
    largest sample seen since construction."""

    def __init__(self, interval: float = 1.0):
        self.interval = interval
        self.peak = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        me = os.getpid()
        self.peak = max(self.peak, pss_mb([me] + descendants(me)))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> None:
        self._stop.clear()
        self.sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.sample()


def start_ray(root: str, num_cpus: int, object_store_mb: int) -> dict:
    """Start a local Ray session whose files stay under ``root`` when the
    socket paths fit; returns the session facts recorded in every result."""
    import ray
    temp_dir = os.path.join(root, ".kgbench", "ray")
    in_checkout = len(temp_dir) + _SOCKET_SUFFIX <= 107
    kw = {"_temp_dir": temp_dir} if in_checkout else {}
    # workers import agraph_ray and kgbench from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    ray.init(address="local", num_cpus=num_cpus,
             object_store_memory=object_store_mb << 20,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, **kw)
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    res = ray.cluster_resources()
    return {"nproc": nproc(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "ray_cpus": int(res.get("CPU", 0)),
            "object_store_mb": round(res.get("object_store_memory", 0)
                                     / (1 << 20)),
            "ray_temp_in_checkout": in_checkout}


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_ray(timeout: float = 60.0) -> List[int]:
    """Shut Ray down and wait until every process it started has exited;
    stragglers get SIGKILL. Returns the pids that had to be killed.

    The pid set is taken before shutdown: workers outlive the raylet for a
    moment and are re-parented, so a later tree walk would miss them."""
    import ray
    me = os.getpid()
    pids = descendants(me)
    ray.shutdown()
    killed: List[int] = []
    for grace in (timeout, 10.0):
        deadline = time.time() + grace
        while time.time() < deadline:
            _reap()
            left = [p for p in pids if _alive(p)]
            if not left:
                return killed
            time.sleep(0.1)
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
            except OSError:
                pass
    return killed


def _reap() -> None:
    """Collect exited direct children so they do not linger as zombies."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return
