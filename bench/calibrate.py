"""Fixed pure-Python calibration loop, run as its own process.

    python3 bench/calibrate.py

Prints the loop's wall time in seconds.  The loop mixes the operations
fistab spends its time on: small-int arithmetic, dict updates, tuple
building and Fraction arithmetic.  run.py runs it once before the first
pass and again after every command.  Each pass's wall time divided by the
harmonic mean of the times of the loops around it gives ``rel_time``.
"""

import time
from fractions import Fraction

ROUNDS = 150_000


def spin(rounds: int = ROUNDS):
    acc = 1
    table = {}
    for i in range(rounds):
        acc = (acc * 31 + i) % 1_000_003
        key = (i & 255, acc & 7)
        table[key] = table.get(key, 0) + acc
    total = Fraction(0)
    for i in range(1, rounds // 30):
        total += Fraction(i % 7 - 3, i % 97 + 1)
    return acc, len(table), total


if __name__ == "__main__":
    start = time.perf_counter()
    spin()
    print(repr(time.perf_counter() - start))
