"""Machine-speed calibration of the benchmark's timings.

The effective speed of a shared CPU drifts: on a shared two-vCPU 2 GHz
Xeon virtual machine, a fixed pure-Python loop ran 10-30 % slower or
faster from one ten-second window to the next, and whole passes moved by
as much between runs.  Back-to-back runs of the same loop agree far
better (correlation 0.8).  So the runner times a fixed slice of
pure-Python work before every job (every chunk of families in
verify-batch) and after the last one, and scales each timing by
``REF_SLICE_S`` over the mean of the two slices around it.  The result
is in seconds at a fixed reference speed; the raw wall times are printed
alongside in the detail line.

The slice is benchmark code and never calls the program under test, so
a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import json
import time

REF_SLICE_S = 0.065  # one slice at the reference speed (a 2 GHz Xeon vCPU)


def slice_s() -> float:
    """Time one fixed slice: the pairwise set-intersection scan and JSON
    round trip that dominate the workloads, on fixed data."""
    # no collection inside the slice: its cost would depend on the caller's heap
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        blocks = [frozenset(range(i % 97, i % 97 + 5)) for i in range(800)]
        best = 0
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                m = len(a & b)
                if m > best:
                    best = m
        json.loads(json.dumps([sorted(b) for b in blocks]))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(times, slices) -> list:
    """Scale ``times[i]`` by the slices taken just before and after it
    (``len(slices) == len(times) + 1``)."""
    return [t * 2 * REF_SLICE_S / (slices[i] + slices[i + 1])
            for i, t in enumerate(times)]


def timed_reps(reps, fn) -> dict:
    """Run ``fn`` (which returns seconds) ``reps`` times between
    calibration slices; raw and scaled samples."""
    raw, slices = [], [slice_s()]
    for _ in range(reps):
        raw.append(fn())
        slices.append(slice_s())
    return {"raw": raw, "scaled": scaled(raw, slices)}
