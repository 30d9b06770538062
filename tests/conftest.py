"""Harness pin for the whole suite.

``OMP_NUM_THREADS=1`` must be in the environment before the first compiled
kernel is loaded (libgomp reads it once, at ``dlopen``): several tests fork
after kernels have run in the pytest process, and a child that enters an
``omp parallel`` region deadlocks on the parent's dead thread pool.  The
benchmark workers (``benchmarks/perf``) start with the same pin.  An
explicit value in the caller's environment wins.
"""

import os

os.environ.setdefault("OMP_NUM_THREADS", "1")
