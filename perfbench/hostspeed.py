"""Host-speed reference for the benchmark's wall times.

The benchmark shares a few cores of a host with other machines.  Their load
slows every step of the program, by up to 1.7x, in spells that last from
seconds to minutes, so the wall times of the same code spread past the
benchmark's bounds from run to run.  A fixed kernel slows with it: timed
just before and just after each of 57 back-to-back extracts, its mean time
correlated 0.83 with the extract's.  Over ten runs of each workload,
scaling by it cut the spread between runs (interquartile range over
median) of extract_s from 0.17-0.29 to 0.09-0.13 and of predict_ms_p50
from 0.21 to 0.03-0.04.  It helps a long step less: the kernel sees the
host only at the step's ends, and a 20 s train_s spread 0.12 scaled
against 0.09 raw.

``HostSpeed`` samples the kernel between the program's timed steps.  A step
is reported at reference speed: its wall time times REFERENCE_S over the
mean of the samples just before and just after it, that is the time it
would take on a host where the kernel runs in REFERENCE_S.  ``run.json``
keeps the raw wall times and the samples.
"""

import time

import numpy as np

# Fixed, so that runs compare; it only sets the scale.  Near the kernel's
# fastest time on the 2-vCPU Xeon host the benchmark was tuned on (0.12 s;
# 0.14-0.21 s under the host's load).
REFERENCE_S = 0.13

STREAM_DOUBLES = 4_000_000   # 32 MB, past the 4 MB L2: memory bandwidth
STREAM_PASSES = 12
TILE = 128                   # cache-resident FFT and matrix product
TILE_PASSES = 300


def kernel_seconds():
    """Wall time of one pass of the reference kernel."""
    # allocated per call, so it adds nothing to the RSS between calls
    stream = np.ones(STREAM_DOUBLES)
    tile = np.random.default_rng(0).random((TILE, TILE))
    start = time.perf_counter()
    for _ in range(STREAM_PASSES):
        stream.sum()
        np.multiply(stream, 1.0, out=stream)
    for _ in range(TILE_PASSES):
        np.fft.rfft2(tile)
        tile @ tile.T
    return time.perf_counter() - start


class HostSpeed:
    """Samples the reference kernel between the program's timed steps."""

    def __init__(self):
        self.samples = [kernel_seconds()]

    def scale(self, seconds):
        """``seconds``, timed since the previous sample, at reference speed; takes the next sample."""
        self.samples.append(kernel_seconds())
        return seconds * REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2)
