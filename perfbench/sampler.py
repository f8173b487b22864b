"""Machine-speed sampler: a process of its own that times the speed
kernel (``metrics.kernel_seconds``) every ``interval`` seconds and
prints ``<monotonic end time> <kernel seconds>`` per sample until it is
terminated.  ``time.monotonic`` is system-wide, so the times line up
with the parent's.

Usage: python3 perfbench/sampler.py <interval seconds>
"""

import os
import signal
import sys
import time

sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench import metrics  # noqa: E402


def main() -> int:
    interval = float(sys.argv[1])
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    while True:
        seconds = metrics.kernel_seconds(1)
        print(f"{time.monotonic()!r} {seconds!r}", flush=True)
        time.sleep(interval)


if __name__ == "__main__":
    sys.exit(main())
