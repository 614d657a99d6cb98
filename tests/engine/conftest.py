"""Fixtures for the engine test suite."""

from __future__ import annotations

import pytest

from repro.engine import vectorized
from repro.evaluator import sigma_delta

#: A strategy boundary low enough that the small fixtures of the
#: equivalence and chunking tests put slots on both sides of it: chunks
#: of 1 or 2 devices run the per-device modulator, every wider slot the
#: device-axis loop.
SPLIT_AT = 3


@pytest.fixture
def slot_split(request, monkeypatch):
    """Move the modulators' device-axis boundary (``_BATCH_MIN_DEVICES``).

    Parametrize indirectly with a slot size: slots of finite-gain or
    incompletely settling channels with fewer devices run the per-device
    sample loop, the rest the device-axis loop.
    ``None`` (or no parameter) keeps the shipped ``_BATCH_MIN_DEVICES``,
    which is above the slot sizes of the tests that use this fixture,
    so those runs take the per-device path throughout.
    """
    split = getattr(request, "param", None)
    if split is not None:
        monkeypatch.setattr(sigma_delta, "_BATCH_MIN_DEVICES", split)
    return sigma_delta._BATCH_MIN_DEVICES


#: A device block small enough that the fixtures' ideal-channel slots
#: span several blocks, most of them ending in a partial tail block.
BLOCK_AT = 3


@pytest.fixture
def slot_block(request, monkeypatch):
    """Shrink the vectorized measurer's ideal-slot device block.

    Parametrize indirectly with a block size: ideal-channel slots then
    fill, draw and count that many devices at a time.  ``None`` (or no
    parameter) keeps the shipped ``_BLOCK_DEVICES``, which is above the
    slot sizes of the tests that use this fixture, so those slots are
    one block each.
    """
    block = getattr(request, "param", None)
    if block is not None:
        monkeypatch.setattr(vectorized, "_BLOCK_DEVICES", block)
    return vectorized._BLOCK_DEVICES
