"""NumPy's outer-axis reduction order, pinned against ``cumsum`` bit for bit.

The ideal closed form reads two prefix sums per device, ``T[half - 2]``
and ``T[n - 2]``, from a time-major ``(mn x block)`` array with two
``np.add.reduce`` calls along axis 0 instead of a running ``cumsum``.
That is exact only because NumPy adds the rows of a C-contiguous array
one at a time, in order — NumPy behaviour, not documented API.  These
tests fail loudly if a NumPy upgrade changes it.
"""

import numpy as np
import pytest

from repro.evaluator.sigma_delta import _prefix_sums

#: Window lengths: odd and even, down to the smallest the closed form
#: accepts, and the yield-lot window (m = 20, N = 96).
WINDOWS = (4, 5, 97, 481, 1920, 3841)


def random_block(rng: np.random.Generator, mn: int, width: int) -> np.ndarray:
    """A C-contiguous time-major block whose rows span 7 decades."""
    scale = 10.0 ** rng.uniform(-3.0, 4.0, size=(mn, 1))
    block = rng.normal(size=(mn, width)) * scale
    # Some columns shaped like the closed form's (x / vref + 1) / 2.
    block[:, ::2] = 0.5 * (block[:, ::2] / 1.3 + 1.0)
    return block


def row_cumsum(block: np.ndarray) -> np.ndarray:
    """The device-major running sum the closed form used to take."""
    return np.cumsum(np.ascontiguousarray(block.T), axis=1)


@pytest.mark.parametrize("width", [2, 3, 64, 65])
@pytest.mark.parametrize("mn", WINDOWS)
def test_two_step_outer_reduce_matches_row_cumsum(mn, width):
    rng = np.random.default_rng(mn * 1000 + width)
    half = mn // 2
    for _ in range(10):
        t = random_block(rng, mn, width)
        running = row_cumsum(t)
        first = np.add.reduce(t[: half - 1], axis=0)
        t[half - 1] += first
        total = np.add.reduce(t[half - 1 : mn - 1], axis=0)
        assert first.tobytes() == running[:, half - 2].tobytes()
        assert total.tobytes() == running[:, mn - 2].tobytes()


@pytest.mark.parametrize("width", [1, 2, 3, 64, 65])
@pytest.mark.parametrize("mn", WINDOWS)
def test_prefix_sums_match_row_cumsum(mn, width):
    """Every block width the slot walk produces, single columns included
    (a lone column would reduce pairwise, so it takes the running sum)."""
    rng = np.random.default_rng(mn * 1000 + width + 7)
    half = mn // 2
    for _ in range(10):
        t = random_block(rng, mn, width)
        running = row_cumsum(t)
        first, total = _prefix_sums(t)
        assert np.asarray(first).tobytes() == running[:, half - 2].tobytes()
        assert np.asarray(total).tobytes() == running[:, mn - 2].tobytes()
