"""An idle-priority busy loop that keeps the measured core awake.

The UDP workloads sleep in ``epoll`` thousands of times a second.  On the
VM this benchmark was sized on, every such sleep lets the virtual CPU
halt, and what a halt costs (the exit to the host, the clocks the core
comes back at) changed with how busy the rest of the host was: identical
runs cost 210 to 330 CPU-us per delivery from one quarter of an hour to
the next, with the host's pure-Python speed unchanged.  With the core
never allowed to idle the same runs stay within a few percent.

So the harness pins every measured child to one CPU and runs this loop
on the same CPU under ``SCHED_IDLE``: it gets the core only while the
child sleeps and loses it the moment the child wakes.  A CPU-bound child
(the simulator workloads) never lets it run at all.

It ends by itself when the harness that started it is gone, or after
``LIFETIME`` seconds, so a killed harness cannot leave it spinning.
"""

import os
import sys
import time

LIFETIME = 240.0

if __name__ == "__main__":
    parent, cpu = int(sys.argv[1]), int(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:
        os.nice(19)
    deadline = time.monotonic() + LIFETIME
    while os.getppid() == parent and time.monotonic() < deadline:
        until = time.perf_counter() + 0.05
        while time.perf_counter() < until:
            pass
