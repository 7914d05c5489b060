"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels as SK
from repro.core.config import HiMAConfig
from repro.dnc import numpy_ref as K
from repro.dnc.model import DNC, DNCConfig


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_dnc_config():
    """A DNC small enough for gradient checks and fast training."""
    return DNCConfig(
        input_size=5, output_size=3, memory_size=8, word_size=4,
        num_reads=2, hidden_size=12,
    )


@pytest.fixture
def small_dnc(small_dnc_config):
    return DNC(small_dnc_config, rng=0)


@pytest.fixture
def small_hima_config():
    """A HiMA config small enough for fast engine/perf tests."""
    return HiMAConfig(
        memory_size=64, word_size=16, num_reads=2, num_tiles=4,
        hidden_size=32, sequence_length=4,
    )


def _assert_three_pass_write(engine, x, old, new):
    """``new``'s memory/linkage/precedence are bitwise numpy_ref's
    three-pass erase/linkage/precedence kernels applied to ``old`` under
    the step's own write weighting (per tile under DNC-D)."""
    _, _, iface = engine._controller(x, old)
    erase, value, write_w = iface.erase, iface.write_vector, new.write_w
    memory, linkage, precedence = old.memory, old.linkage, old.precedence
    nt = engine.config.num_tiles
    if engine.config.distributed:
        write_w = SK.shard_vector(write_w, nt)
        erase, value = erase[..., None, :], value[..., None, :]
        memory = SK.shard_matrix(memory, nt)
        linkage = SK.block_diagonal(linkage, nt)
        precedence = SK.shard_vector(precedence, nt)
    want = (
        K.erase_write(memory, write_w, erase, value),
        K.linkage_update(linkage, write_w, precedence),
        K.precedence_update(precedence, write_w),
    )
    if engine.config.distributed:
        want = (
            SK.unshard_matrix(want[0]),
            SK.scatter_block_diagonal(want[1]),
            SK.unshard_vector(want[2]),
        )
    for name, expected in zip(("memory", "linkage", "precedence"), want):
        assert np.array_equal(getattr(new, name), expected), name


@pytest.fixture
def assert_three_pass_write():
    """Oracle check of one engine step's write phase (see above)."""
    return _assert_three_pass_write


def _masked_path(engine, state, k):
    """Which masked path the last ``k``-slot step took, from its copy
    counter: none on full occupancy, whole rows (gather + scatter) on
    the compact path, only the small per-row fields on dense-capacity."""
    copied = engine.last_state_bytes_copied
    if copied == 0:
        return "full"
    if copied == 2 * k * state.row_nbytes:
        return "compact"
    big3 = (
        state.memory[0].nbytes + state.linkage[0].nbytes
        + state.precedence[0].nbytes
    )
    assert copied == k * (state.row_nbytes - big3)
    return "dense"


@pytest.fixture
def masked_path():
    """Classifier of the masked step path an engine just took (above)."""
    return _masked_path
