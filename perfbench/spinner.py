"""Keep one vCPU from going idle, at idle priority.

On this sandbox a blocked thread's wake-up costs whatever the
hypervisor needs to get a halted vCPU running again — up to
milliseconds beside busy neighbours — and every workload that blocks
(a pipe hop, a follower waiting for its leader, the log writer) pays it
on every hop.  ``run.py`` therefore starts one of these per vCPU around
its repetitions, the virtual-machine counterpart of benchmarking with
CPU idle states off: interleaved A/B on shard_2pc, ``txn_p50`` 0.72–0.82
ms with spinners against 0.98–1.25 ms without, same minute, same code.
``SCHED_IDLE`` runs only when the CPU has nothing else, so the loop
takes no time from the engine.

Usage: ``python spinner.py <cpu> <max seconds>``.  Exits on its own when
its parent is gone or the time is up, so it can never be left behind.
"""

import os
import sys
import time


def main() -> int:
    cpu, lifetime = int(sys.argv[1]), float(sys.argv[2])
    parent = os.getppid()
    try:
        os.sched_setaffinity(0, {cpu})
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)  # no idle class here: the lowest ordinary priority
    deadline = time.monotonic() + lifetime
    while os.getppid() == parent and time.monotonic() < deadline:
        total = 0
        for i in range(200_000):
            total += i * i % 7
    return 0


if __name__ == "__main__":
    sys.exit(main())
