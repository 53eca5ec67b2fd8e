"""How fast the host runs the benchmark's kind of work at this moment.

The measuring host is a small VM on a shared machine.  Its cores slow
down by up to ~1.8x for seconds to minutes at a time when other tenants
are busy, and the CPU time of the process slows with the wall time, so
neither clock can tell a slow program from a busy host.  A fixed kernel
timed between the program's phases can: it slows by the same factor.

The kernel does the two kinds of work qbde spends its time on: numpy
operations on small arrays (a state-vector update, a small dense layer)
and pure-Python text handling (log parsing), about half of its time
each.  Under contention qbde's circuit training, network training and
log parsing slow by the same factor as this mix, within a few per cent;
either half alone tracks some phases less well.  The kernel never calls
qbde, so a change to the program cannot move it.

``REFERENCE_S`` is what it takes on an idle core of the measuring host
(2.1 GHz Xeon).  A phase's *reference seconds* are its wall seconds
times ``REFERENCE_S`` over the kernel time measured on either side of it.
"""

from __future__ import annotations

import functools
import time

REFERENCE_S = 0.020


@functools.cache
def _inputs():
    # numpy is imported here, not at module level, so that the harness
    # can time the first ``import numpy`` of the run as set-up
    import numpy as np
    rng = np.random.default_rng(20220819)
    lines = [f"{i},user{i % 7},2020-01-{1 + i % 28:02d} 08:{i % 60:02d}:00,"
             f"PC-{i % 13},Logon" for i in range(15000)]
    return (np, rng.random(256) + 1j * rng.random(256),
            rng.random(256) + 0j, rng.random((32, 64)), rng.random((64, 32)),
            lines)


def kernel_seconds() -> float:
    """Wall seconds of one pass of the reference kernel (~20 ms)."""
    np, amps, gains, left, right, lines = _inputs()
    start = time.perf_counter()
    for _ in range(1100):
        swapped = amps.reshape(4, 2, 32)[:, ::-1, :].reshape(256)
        amps = 0.7 * amps + 0.3 * swapped * gains
        probs = np.abs(amps) ** 2
        dense = left @ right
    del probs, dense
    counts: dict[tuple[str, str], int] = {}
    for line in lines:
        fields = line.split(",")
        key = (fields[1], fields[2][:10])
        counts[key] = counts.get(key, 0) + int(fields[0]) % 5
    return time.perf_counter() - start
