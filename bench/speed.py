"""Machine-speed probe: scales measured seconds to a fixed reference speed.

The shared 2-vCPU machine this benchmark was tuned on (2.0 GHz Xeon, Python
3.11) slows down by up to 2x, changing within a second and lasting for
minutes. The slowdown is as large in CPU time as in wall time, and it is not
steal time. Medians of the same pipeline pass, taken in back-to-back
8-second windows, ranged from 1.57 to 2.66 s, a quartile spread of 36%.

While a stretch of work runs, a timer signal every ``INTERVAL_S`` runs a
short probe: a fixed edit-distance loop of about 0.4 ms, the kind of
interpreted loop the aligners spend their time in. The probe's own time is
taken out of the stretch. The remaining seconds are multiplied by
``REFERENCE_S`` over the probe's mean time during the stretch. Over 18-29
passes of each aligner workload, this brought the quartile spread of pass
times from 20-31% down to 4-5%. A probe that also parsed and joined strings
tracked less well (6-11%). Scaled times read as seconds on that machine when
it is unloaded.
"""

import random
import signal
import time

INTERVAL_S = 0.025
#: The probe's time on the unloaded machine named above.
REFERENCE_S = 0.0004

_rng = random.Random(0)
_A = _rng.choices("ACGT", k=34)
_B = _rng.choices("ACGT", k=34)


def _probe_work() -> None:
    prev = list(range(len(_B) + 1))
    for i, x in enumerate(_A, 1):
        cur = [i] + [0] * len(_B)
        for j, y in enumerate(_B, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur


class Probe:
    """Samples the machine's speed while a stretch of work runs.

    Uses ``SIGALRM``, so there is one probe per process, used from the main
    thread only.
    """

    def __init__(self):
        self.spent = 0.0  # probe seconds inside the current stretch
        self._samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _probe_work()
        seconds = time.perf_counter() - start
        self._samples.append(seconds)
        self.spent += seconds

    def start(self) -> None:
        self.spent = 0.0
        self._samples = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """End the stretch; return the factor that scales its seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if not self._samples:  # a stretch shorter than one interval
            self._sample()
            self.spent -= self._samples[-1]
        return REFERENCE_S * len(self._samples) / sum(self._samples)
