"""Machine-speed gauges: wall time converted to reference seconds.

The benchmark runs on a small virtual machine of a shared host.  There a
fixed pure-Python loop runs up to 1.8 times slower for seconds to minutes at
a time, in CPU time as much as in wall time, and each virtual CPU on its own,
so no run length averages the machine's speed out of a wall-clock time.

A suite process therefore times a short fixed loop, the probe, every
INTERVAL seconds of its own run, on the CPU it is working on at that moment,
and converts each stretch of its time into reference seconds: the time the
stretch would have taken at the reference speed, at which one probe takes
REF_PROBE_S.  With the probes p_i that fall in the stretch,

    reference s = (wall s - time spent in the probes) * mean(REF_PROBE_S / p_i)

The probes fire on a wall-clock timer, so they are spread evenly over the
stretch and their mean speed is the stretch's mean speed.  The probe is
interpreter work on small ints and a dict, like the program's own term
loops; a change to the program does not change it.

Set-up is a quarter of a second of loading code and data in a fresh process,
which the probe does not gauge well: it moves with the machine's state in
its own way.  Set-up is gauged instead by a process that does the part of
set-up that does not depend on the program (start the interpreter, import
numpy), started just before; a set-up time in reference seconds is its ratio
to that process's time, times REF_START_S.
"""

import gc
import signal
import time

STEPS = 4000              # one probe: about 1.5 ms at the reference speed
REF_PROBE_S = 1.5e-3      # probe time at the reference speed
INTERVAL = 0.1            # seconds of wall time between probes
REF_START_S = 0.2         # interpreter start and numpy import, reference


def probe():
    d = {}
    x = 1
    for _ in range(STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = (x >> 8) & 1023
        d[k] = d.get(k, 0) ^ x
    return d


class Reading:
    """Clocks and probe totals at one moment of a process."""

    __slots__ = ("wall", "cpu", "probe_wall", "probe_cpu", "speed", "n")

    def __init__(self, wall, cpu, probe_wall, probe_cpu, speed, n):
        self.wall = wall            # time.monotonic()
        self.cpu = cpu              # time.process_time()
        self.probe_wall = probe_wall
        self.probe_cpu = probe_cpu
        self.speed = speed          # sum of REF_PROBE_S / p_i
        self.n = n                  # probes taken


def factor(a, b):
    """Mean speed, relative to the reference, of the probes after reading a
    up to and including reading b."""
    return (b.speed - a.speed) / (b.n - a.n)


def net_wall(a, b):
    """Wall time from a to b, less the time spent in probes."""
    return b.wall - a.wall - (b.probe_wall - a.probe_wall)


def net_cpu(a, b):
    """CPU time from a to b, less the time spent in probes."""
    return b.cpu - a.cpu - (b.probe_cpu - a.probe_cpu)


def wall_ref(a, b):
    """net_wall in reference seconds."""
    return net_wall(a, b) * factor(a, b)


def cpu_ref(a, b):
    """net_cpu in reference seconds."""
    return net_cpu(a, b) * factor(a, b)


class Pacer:
    """Probes the machine's speed every INTERVAL seconds of wall time until
    stop().  Start it first thing in the process, so that the probes cover
    set-up too, which the process's CPU time counts; the first probe runs at
    once."""

    def __init__(self, interval=INTERVAL):
        self.probe_wall = self.probe_cpu = self.speed = 0.0
        self.n = 0
        self._busy = False
        self.origin = self._reading()
        self.origin.cpu = 0.0       # the CPU clock starts with the process
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def _reading(self):
        return Reading(time.monotonic(), time.process_time(),
                       self.probe_wall, self.probe_cpu, self.speed, self.n)

    def sample(self):
        self._busy = True
        # a garbage collection of the program's objects is not machine speed
        collecting = gc.isenabled()
        gc.disable()
        w, c = time.perf_counter(), time.process_time()
        probe()
        dw, dc = time.perf_counter() - w, time.process_time() - c
        if collecting:
            gc.enable()
        self.probe_wall += dw
        self.probe_cpu += dc
        self.speed += REF_PROBE_S / dw
        self.n += 1
        self._busy = False

    def _alarm(self, signum, frame):
        if not self._busy:          # not inside a probe that mark() runs
            self.sample()

    def mark(self):
        """Probe now and return a Reading; the probe belongs to the stretch
        that ends at this reading."""
        self.sample()
        return self._reading()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
