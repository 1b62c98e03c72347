"""Machine-speed calibration for timings on a shared, noisy host.

Small cloud VMs share physical cores with other tenants.  On the 2-vCPU
Intel Xeon VM this benchmark was tuned on, the speed of pure-Python code
drifts by a third within seconds and stays off for minutes: one process
answering the same questions ran anywhere from 80 to 160 questions/s.
Medians over a run do not remove drift that lasts longer than the run.

So the benchmark times a fixed kernel after every question.  The kernel
does the kind of work the engine does (small objects, tuple sorting,
f-string rendering, regex tokenising, sha256, JSON) but never changes with
the program.  It runs with the garbage collector off, so an engine that
leaves more garbage or holds a larger heap does not slow it down: its time
tracks the host, not the engine.

A *scaled* time is the measured time times ``REFERENCE_KERNEL_S / kernel
time``: a time in units of the kernel's time.  The benchmark compares
separate runs.  Across 30 runs per in-memory workload on that VM (three
sets of ten seeds), log unscaled questions/s fell with log kernel time at
a slope of 0.95 (self_correct) and 0.97 (hub_inmem), r = 0.94 and 0.99,
so the ratio is used as it is.  Within one set of ten the slope ranged
from 0.5 to 1.1, and within one process, over 2-10 s blocks, it was
0.6-0.85; exponents from 0.75 to 1 gave about the same spreads.
``run.py`` prints each run's median kernel time next to its unscaled
rate, so the slope can be checked again.  Each question is scaled by the
geometric mean of the kernel runs just before and just after it, so a
hiccup of the host shorter than a second is scaled out of the questions it
hit: this cut the spread of p90 on self_correct and hub_inmem by 40-50%
against scaling by the median kernel of 1 s blocks.  The reference is
about the kernel's time on that VM when idle, so scaled times read as its
times.
"""

from __future__ import annotations

import gc
import hashlib
import json
import re
import time

REFERENCE_KERNEL_S = 0.0006

_TOKENS = re.compile(r"[a-z0-9]+")


class _Edge:
    __slots__ = ("head", "relation", "tail", "direction")

    def __init__(self, head, relation, tail, direction):
        self.head, self.relation, self.tail, self.direction = head, relation, tail, direction


def _kernel() -> tuple[str, int, str]:
    edges = [
        _Edge(f"m.0n{i}", f"film.w{i % 17}.w{i % 17}_of", f"m.0l{i * 7 % 101}", "outgoing")
        for i in range(150)
    ]
    keys = sorted((e.head, e.relation, e.tail, e.direction) for e in edges)
    text = "".join(f"{h} —{r}→ {t} ({d})\n" for h, r, t, d in keys)
    tokens = _TOKENS.findall(text)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    doc = json.dumps(
        [{"head": h, "relation": r, "tail": t, "direction": d} for h, r, t, d in keys],
        sort_keys=True,
    )
    return doc, len(tokens), digest


def kernel_seconds() -> float:
    """The kernel's time, with the collector off so it pays for no one else's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, kernel: float) -> float:
    """One timing at reference speed, given the kernel's time around it."""
    return seconds * REFERENCE_KERNEL_S / kernel


def scaled_latencies(walls, kernels) -> list[float]:
    """Scale question i by the kernel runs just before and after it, kernels[i] and [i + 1]."""
    return [scale(w, (before * after) ** 0.5)
            for w, before, after in zip(walls, kernels, kernels[1:])]
