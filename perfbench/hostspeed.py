"""A fixed probe that tracks the host's current speed.

On a small shared host, other load slows everything this process runs by up
to ~1.7x for seconds or minutes at a time; back-to-back passes of identical
work took 0.34 s or 0.60 s.  The probe is a fixed piece of work of the same
kind as projlab's hot paths (interpreter-bound loops over small numpy
calls) that does not call projlab, so no change to projlab can change it.
Timing it right before and right after an item, and scaling the item's time
by NOMINAL_S / (mean probe time), expresses the item in seconds at the
probe's nominal speed; on the host the benchmark was built on, one run's
median pass time moved 48 % between runs while the scaled median moved 2 %.
import_probe() does the same for the projlab import in set-up.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Probe wall time on the unloaded build host (2 vCPU, Python 3.11.7,
# numpy 2.4.6).  It fixes the unit only: on another host, scaled values
# differ from wall times by a constant factor.
NOMINAL_S = 1.5e-3
PROBE_ROUNDS = 100       # NOMINAL_S is the time of exactly this many rounds

# Importing projlab is mostly reading files and loading shared libraries, which
# slows with other load but not in step with probe(): in 20 back-to-back
# imports on the build host the import wall time spread 16 % (IQR/median)
# while the probe jumped between 1.6 and 3.0 ms.  Its own probe is importing,
# in a fresh interpreter, the libraries projlab imports; set against that,
# the projlab import spread 9 %.  IMPORT_NOMINAL_S is that probe's wall time
# on the unloaded build host.
IMPORT_PROBE_MODULES = "argparse, concurrent.futures, csv, dataclasses, json, numpy, scipy.optimize"
IMPORT_NOMINAL_S = 0.6

_RNG = np.random.default_rng(0)
_NORMALS = _RNG.standard_normal((2, 6))
_NORMALS /= np.linalg.norm(_NORMALS, axis=1)[:, None]
_START = _RNG.standard_normal(6)


def probe():
    """Wall time of PROBE_ROUNDS cycles of projections onto two hyperplanes."""
    t0 = time.perf_counter()
    x = _START.copy()
    for _ in range(PROBE_ROUNDS):
        for a in _NORMALS:
            v = np.asarray(x, dtype=float)
            if not np.all(np.isfinite(v)):
                raise FloatingPointError("probe iterate is not finite")
            x = v - (float(a @ v) - 0.1) * a
            float(np.linalg.norm(x - v))
    return time.perf_counter() - t0


def import_probe():
    """Wall time to import IMPORT_PROBE_MODULES in a fresh interpreter."""
    code = (f"import time; t = time.perf_counter(); import {IMPORT_PROBE_MODULES}; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout)
