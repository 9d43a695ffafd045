"""Deterministic DeFi protocol simulator and attack-parameter optimizer."""

import os

# Read once, when numpy or scipy loads OpenBLAS: idle workers then spin 2**4 cycles, not 2**28,
# and one thread by default, so that results do not depend on the machine's core count.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
