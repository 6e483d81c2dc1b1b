"""Reference loop: how fast the CPU that the CLI runs use is right now.

run.py starts this on the CPU its CLI runs are pinned to, at low priority
(nice 10).  While a CLI run is busy the loop gets about a tenth of that CPU,
and all of it in between.  It repeats one fixed chunk of work of the kind
fatmod does (exact Fraction arithmetic and dict inserts of tuple keys) and, on
each SIGUSR1, prints the number of chunks done so far and the CPU time it has
used.  Chunks per CPU second between two readings is the speed of that CPU
over the interval, sampled all through it.
"""

import os
import signal
import sys
import time
from fractions import Fraction

done = 0


def report(signum, frame):
    print(done, time.process_time(), flush=True)


def main():
    global done
    os.nice(10)
    signal.signal(signal.SIGUSR1, report)
    print("ready", flush=True)
    while True:
        x = Fraction(0)
        seen = {}
        for i in range(1, 12):
            x += Fraction(i, i * i + 1)
            seen[(i, x.denominator % 97)] = x
        done += 1


if __name__ == "__main__":
    sys.exit(main())
