"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark shares its CPUs with other tenants, and their load changes
the speed of the host: on the shared 2-CPU Intel Xeon host the baseline was
measured on, the same code ran about 1.6 times slower in slow phases than in
fast ones, and the phases changed every fraction of a second to every few
minutes.  The kernel below does a fixed amount of the kind of work
orbitron's hot paths do (interpreted Python arithmetic and calls, small
numpy vectors, an 8 x 8 solve) and touches no orbitron code, so its time
moves with the host and never with the program.  ``run.py`` times it
between calls and scales each call's time by ``REF_S`` over the probe time
around the call (see README.md).
"""

from __future__ import annotations

import math
import time

import numpy as np

# A nominal kernel time, between the kernel's time in the fast (about 11 ms)
# and the slow (about 19 ms) phases of that host with Python 3.11 and numpy
# 2.4.  Scaled times are the times the calls would take on a host where the
# kernel takes REF_S.
REF_S = 0.016

_A = (np.arange(64.0).reshape(8, 8) % 7.0) + 8.0 * np.eye(8)
_EZ = np.array([0.0, 0.0, 1.0])


def kernel() -> float:
    x = np.array([0.7, 0.1, 0.2])
    v = np.array([0.0, 1.0, 0.3])
    acc = 0.0
    for k in range(300):
        r = math.sqrt(float(x @ x))
        a = -x / r**3 + 0.1 * np.cross(v, _EZ)
        v = v + 1e-3 * a
        x = x + 1e-3 * v
        if k % 8 == 0:
            acc += float(np.linalg.solve(_A, np.full(8, r))[0])
    s = 0
    for i in range(40000):
        s += i * i % 7
    return acc + s


def sample() -> float:
    """Time of one run of the kernel, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
