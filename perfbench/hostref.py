"""Host-speed gauge: a fixed pure-Python loop, timed.

On a shared 2-vCPU host this benchmark's reference loop slows by 15-60%
for seconds to minutes at a time, in wall and CPU time alike, because
other tenants load the machine.  Timings taken next to runs of the loop
are scaled by REF_S / (the loop's median time), which expresses them in
seconds of a host where the loop takes REF_S.
"""

from __future__ import annotations

import time

REF_LOOP = 20_000
# the loop's time on an unloaded host of the kind the baseline ran on
REF_S = 0.00125


def ref_s() -> float:
    """Seconds one run of the reference loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i % 7
    return time.perf_counter() - start
