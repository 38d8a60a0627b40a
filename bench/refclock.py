"""Operation cost in seconds at a fixed reference speed.

A shared host runs the same Python code at speeds that change within
seconds and from minute to minute (this module's probe read from about
4 ms to about 8 ms on one core of a 2-vCPU Xeon VM), and the two vCPUs
change independently. Wall time then measures the host as much as the
program. This module pins the benchmark and every process it starts to
one CPU, measures an operation's CPU time, and divides it by the CPU time
of a fixed pure-Python workload (the probe) run on that same CPU during
and around the operation:

    cost_s = cpu_s * REF_LOOP_S / mean(probe cpu_s)

so ``cost_s`` is the operation's time on a core where the probe takes
``REF_LOOP_S``. While a child process runs, the parent runs one probe
every ``PROBE_GAP_S``; both share the pinned CPU, so the probes sample the
speed the child sees and take about a tenth of that CPU. CPU time leaves
out time spent waiting (on the disk, or for the host to schedule the
vCPU), so a change that only adds waiting does not show in ``cost_s``;
the benchmark prints wall times next to costs for that reason.
"""

from __future__ import annotations

import gc
import json
import os
import select
import statistics
import time

REF_LOOP_S = 0.004  # about the probe's time on a quiet core of the host above
PROBE_GAP_S = 0.05

# The probe's data is built once at import and never freed, and the probe
# allocates only short-lived small objects, so its cost does not depend on
# what the benchmark allocated before it (a probe that maps and unmaps heap
# arenas pays page faults whose cost varies with the process's history).
_WORDS = tuple(("alpha beta gamma delta epsilon zeta eta theta " * 50).split() * 20)
_KEYS = tuple(f"key-{i:06d}" for i in range(20000))
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_ORDER = tuple(_KEYS[(i * 7919) % len(_KEYS)] for i in range(12000))
_DOC = [{"key": f"doc{i}#{i % 7}", "text": "alpha beta gamma " * 8, "path": ["a", "b"]}
        for i in range(150)]


def _reference_loop() -> int:
    """Fixed interpreter-bound work: dict updates, lookups spread over a
    table of a few megabytes, and a JSON round trip."""
    counts = dict.fromkeys(_WORDS[:8], 0)
    for i, word in enumerate(_WORDS):
        counts[word] = (counts[word] + i) & 1023
    total = 0
    for key in _ORDER:
        total += _TABLE[key] & 1
    return total + len(json.loads(json.dumps(_DOC))) + sum(counts.values())


def pin_to_one_cpu() -> int:
    """Pin this process (and so every child it starts) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class RefClock:
    """Accumulates probe samples and normalized costs for one process."""

    def __init__(self):
        self.samples: list[float] = []
        self.probe_cpu_s = 0.0
        self.child_cost_s = 0.0  # normalized cost of every child run so far

    def probe(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.process_time()
            _reference_loop()
            spent = time.process_time() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(spent)
        self.probe_cpu_s += spent
        return spent

    def timed(self, fn):
        """Run ``fn()``; return (result, wall_s, cost_s).

        ``cost_s`` is this process's CPU time in ``fn`` (probes excluded)
        scaled by the probes taken around and during it, plus the cost of
        every child started through ``wait_child`` inside it.
        """
        first = len(self.samples)
        self.probe()
        probes_before, children_before = self.probe_cpu_s, self.child_cost_s
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = fn()
        own = time.process_time() - cpu0 - (self.probe_cpu_s - probes_before)
        wall = time.perf_counter() - wall0
        children = self.child_cost_s - children_before
        self.probe()
        speed = statistics.fmean(self.samples[first:])
        return result, wall, own * REF_LOOP_S / speed + children

    def wait_child(self, pid: int, timeout_s: float):
        """Probe until child ``pid`` exits or ``timeout_s`` passes.

        Returns (exited, status, rusage); on timeout the caller kills the
        child and reaps it. The child's CPU time (its waited-for children
        included) is added to ``child_cost_s`` at the speed sampled while
        it ran.
        """
        first = len(self.samples)
        deadline = time.perf_counter() + timeout_s
        pidfd = os.pidfd_open(pid)
        try:
            exited = False
            while not exited and time.perf_counter() < deadline:
                self.probe()
                wait = min(PROBE_GAP_S, max(0.0, deadline - time.perf_counter()))
                exited = bool(select.select([pidfd], [], [], wait)[0])
        finally:
            os.close(pidfd)
        if not exited:
            return False, None, None
        _, status, usage = os.wait4(pid, 0)
        self.probe()
        speed = statistics.fmean(self.samples[first:])
        self.child_cost_s += (usage.ru_utime + usage.ru_stime) * REF_LOOP_S / speed
        return True, status, usage
