"""Benchmarks for the accelerated kernels behind ``REPRO_KERNELS``.

Acceptance criterion for the kernel subsystem (ISSUE 6): on the BENCH
trajectory's own input sizes, the numpy implementation of every hotspot
kernel must be **3x** faster than the pure-Python reference (median-of-k,
after warmup).  The suite asserts it per kernel and
re-checks bit-identity on the exact arrays being timed, so a speedup can
never be bought with a semantic drift.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.bench import _kernel_inputs
from repro.perf.kernels import get_kernel, kernel_names

#: The per-kernel speedup floor on trajectory-sized inputs.
SPEEDUP_FLOOR = 3.0


@pytest.mark.parametrize("name", kernel_names())
def test_kernel_beats_reference_3x_on_trajectory_inputs(name, median_time):
    pair = get_kernel(name)
    inputs = _kernel_inputs(name, quick=False)
    accelerated = pair.numpy_impl

    expected = pair.reference(*inputs)
    actual = accelerated(*inputs)
    if isinstance(expected, tuple):
        for want, got in zip(expected, actual):
            assert np.array_equal(want, got)
    elif isinstance(expected, np.ndarray):
        assert np.array_equal(expected, actual)
    else:
        assert expected == actual

    reference_seconds = median_time(lambda: pair.reference(*inputs), repeats=5)
    accelerated_seconds = median_time(lambda: accelerated(*inputs), repeats=5)
    speedup = reference_seconds / accelerated_seconds
    print(
        f"\nkernel {name}: reference {reference_seconds * 1e3:.2f} ms, "
        f"accelerated {accelerated_seconds * 1e3:.3f} ms ({speedup:.0f}x)"
    )
    assert speedup >= SPEEDUP_FLOOR, f"kernel {name} only {speedup:.1f}x faster"
