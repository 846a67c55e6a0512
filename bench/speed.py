"""Machine-speed samples for rescaling measured times.

The shared 2-core virtual machine the benchmark was defined on changes
speed by up to a factor of two over tens of seconds, in wall time and CPU
time alike. The benchmark therefore times a fixed reference kernel alongside everything
it measures and reports seconds at the reference speed:
measured seconds * REFERENCE_NOMINAL_S / kernel time. The kernel is the
benchmark's own code, so a change to the program moves the rescaled
numbers as it moves raw seconds.
"""

import signal
import time

import flags

# The kernel's time at the reference speed: about its median on the
# 2-core Intel Xeon virtual machine the benchmark was defined on.
REFERENCE_NOMINAL_S = 0.005
REFERENCE_REPEATS = 16
SAMPLE_EVERY_S = 0.25


class Speedometer:
    """Samples how fast the machine runs the reference kernel: a few
    traversals of a fixed 1152-flag map with the benchmark's own code,
    about 5 ms. Each traversal allocates one bytearray and one small
    list, so the program's heap can hardly slow the kernel through the
    garbage collector.

    Around each operation the kernel runs once before and once after;
    during an operation a SIGALRM handler runs it every SAMPLE_EVERY_S
    seconds, between two bytecodes of the program, and the time spent in
    the handler is taken out of the operation's time. A long operation is
    then scaled by the speed over its whole duration, not at its ends.
    """

    def __init__(self):
        self.graph = flags.from_walks(flags.torus_walks(12, 12, rect=True))
        self.samples = []
        self.spent = 0.0

    def kernel(self):
        n = len(self.graph[0])
        begin = time.perf_counter()
        for _ in range(REFERENCE_REPEATS):
            flags.orbit_count(n, self.graph)
        return time.perf_counter() - begin

    def _on_alarm(self, signum, frame):
        begin = time.perf_counter()
        self.samples.append(self.kernel())
        self.spent += time.perf_counter() - begin

    def timed(self, fn, *args):
        """(fn's result, seconds it took without the samples, mean
        kernel time)."""
        self.samples = [self.kernel()]
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        begin = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - begin
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.samples.append(self.kernel())
        return (result, elapsed - self.spent,
                sum(self.samples) / len(self.samples))


def rescaled(seconds, kernel_s):
    return seconds * REFERENCE_NOMINAL_S / kernel_s
