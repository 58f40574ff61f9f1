"""Reference-speed normalisation.

The sandbox's speed drifts by a factor of two inside one run, so raw
wall-clock cannot repeat within a tenth.  A fixed calibration kernel is
therefore run every :data:`SPIN_PERIOD_S` *on the server's CPU* and
every timing is divided by it: a ``*_ref`` number is what the run would
have read on a box where the kernel takes exactly :data:`REF_SPIN_S`.

The kernel has to share the server's CPU.  The two vCPUs of the
reference box speed up and slow down independently (other tenants on the
sibling hyperthreads): per-second throughput of ``mem-uniform``
correlated +0.82 with the kernel's speed on the server's CPU and -0.36
with its speed on the other one.  So the kernel runs in a helper process
pinned there (``python3 spin.py CPU FILE``, started by the harness), and
is timed in *CPU* time, which a busy server beside it cannot stretch.

The kernel imports nothing from ``repro``: it must keep measuring the
*box*, not the program, when the program gets faster.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import Dict, List, Sequence, Tuple

#: Kernel CPU time on the reference box (the builder's 2-vCPU VM, CPython
#: 3.11, median over the committed baseline runs).  Changing it rescales
#: every ``*_ref`` metric, so it changes only together with a new
#: baseline.
REF_SPIN_S = 0.0040

#: How often the helper runs the kernel (about 4% of the server's CPU).
SPIN_PERIOD_S = 0.125

#: Normalisation bucket width.
BUCKET_S = 1.0

_SPIN_ROUNDS = 500


def spin_kernel(rounds: int = _SPIN_ROUNDS) -> int:
    """Fixed work shaped like the server's: JSON codec, small dict and
    tuple allocation, integer arithmetic."""
    acc = 0
    dumps, loads = json.dumps, json.loads
    for i in range(rounds):
        body = {
            "v": 1,
            "id": i,
            "action": "invoke",
            "params": {
                "transaction": "s1-t%d" % i,
                "obj": "acct-%03d" % (i & 255),
                "operation": "Credit",
                "args": {"__t__": [i % 100 + 1]},
            },
        }
        text = dumps(body, separators=(",", ":"))
        back = loads(text)
        key = (back["id"], back["params"]["obj"], len(text))
        acc = (acc * 31 + hash(key)) & 0xFFFFFFFF
    return acc


def timed_spin() -> float:
    """Run the kernel once; CPU seconds it took."""
    started = time.thread_time()
    spin_kernel()
    return time.thread_time() - started


class Timeline:
    """Spin samples on the run's clock, and the scaling they imply.

    ``origin`` is the start of the measured window; bucket *b* covers
    ``[origin + b, origin + b + 1)`` seconds.  Samples before the origin
    (warm-up) land in negative buckets and only serve as neighbours.
    """

    def __init__(self, origin: float = 0.0, ref_spin_s: float = REF_SPIN_S):
        self.origin = origin
        self.ref_spin_s = ref_spin_s
        self.samples: List[Tuple[float, float]] = []
        self._factors: Dict[int, float] = {}

    def add(self, at: float, spin_s: float) -> None:
        self.samples.append((at, spin_s))
        self._factors.clear()

    def rebase(self, origin: float) -> None:
        self.origin = origin
        self._factors.clear()

    def bucket_of(self, at: float) -> int:
        return int((at - self.origin) // BUCKET_S)

    def _build(self) -> None:
        grouped: Dict[int, List[float]] = {}
        for at, spin_s in self.samples:
            grouped.setdefault(self.bucket_of(at), []).append(spin_s)
        self._factors = {
            bucket: self.ref_spin_s / statistics.fmean(values)
            for bucket, values in grouped.items()
        }

    def factor(self, bucket: int) -> float:
        """``REF_SPIN_S / spin_b``: reference seconds per wall second in
        bucket ``bucket`` (nearest sampled bucket when it has none)."""
        if not self.samples:
            raise ValueError("no spin samples: the box's speed is unknown")
        if not self._factors:
            self._build()
        found = self._factors.get(bucket)
        if found is not None:
            return found
        nearest = min(self._factors, key=lambda b: (abs(b - bucket), b))
        return self._factors[nearest]

    def ref_interval(self, start: float, end: float) -> float:
        """Reference seconds elapsed between two wall instants."""
        total = 0.0
        bucket = self.bucket_of(start)
        cursor = start
        while cursor < end:
            edge = min(end, self.origin + (bucket + 1) * BUCKET_S)
            total += (edge - cursor) * self.factor(bucket)
            cursor = edge
            bucket += 1
        return total

    def ref_duration(self, completed_at: float, duration: float) -> float:
        """A duration that *completed* at ``completed_at``, at reference
        speed (scaled by its completion bucket)."""
        return duration * self.factor(self.bucket_of(completed_at))

    def spins_between(self, start: float, end: float) -> Sequence[float]:
        return [spin for at, spin in self.samples if start <= at < end]


def main(argv: Sequence[str]) -> int:
    """The helper: pin to ``CPU`` (``-`` leaves the placement alone) and
    append ``<perf_counter at start> <kernel CPU seconds>`` lines to
    ``FILE`` until killed, or until the benchmark that started it is
    gone."""
    cpu, path = argv
    if cpu != "-":
        os.sched_setaffinity(0, {int(cpu)})
    parent = os.getppid()
    with open(path, "a") as out:
        while os.getppid() == parent:
            at = time.perf_counter()
            out.write(f"{at!r} {timed_spin()!r}\n")
            out.flush()
            time.sleep(SPIN_PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
