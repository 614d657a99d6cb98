"""Fixtures for the engine test suite."""

from __future__ import annotations

import pytest

from repro.engine import vectorized

#: A strategy boundary low enough that the small fixtures of the
#: equivalence and chunking tests put slots on both sides of it: chunks
#: of 1 or 2 devices run the per-device modulator, every wider slot the
#: device-axis loop.
SPLIT_AT = 3


@pytest.fixture
def slot_split(request, monkeypatch):
    """Move the vectorized measurer's non-ideal strategy boundary.

    Parametrize indirectly with a slot size: non-ideal slots with fewer
    devices run the per-device modulator, the rest the device-axis loop.
    ``None`` (or no parameter) keeps the shipped ``_BATCH_MIN_DEVICES``,
    which is above the slot sizes of the tests that use this fixture,
    so those runs take the per-device path throughout.
    """
    split = getattr(request, "param", None)
    if split is not None:
        monkeypatch.setattr(vectorized, "_BATCH_MIN_DEVICES", split)
    return vectorized._BATCH_MIN_DEVICES


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
