"""Pinned outputs of the splitmix64 streams.

Recorded samples csvs replay from their seed column, so the child-seed rule
and the raw stream must never change; these values pin both.
"""

import numpy as np
import pytest

from efs.rng import SplitMix64, spawn_seed


@pytest.mark.parametrize("seed, index, child", [
    (0, 0, 5197578548964807871),
    (2026, 49, 11790367750313986095),
    (2**63 + 5, 1, 11854418886094786554),
    (-3, 7, 6157740107303967418),
])
def test_spawn_seed_pinned(seed, index, child):
    assert spawn_seed(seed, index) == child


def test_spawn_seed_reduces_seed_mod_2_64():
    assert spawn_seed(2026 + 2**64, 49) == spawn_seed(2026, 49)
    assert spawn_seed(-3, 7) == spawn_seed(2**64 - 3, 7)


def test_raw_stream_pinned():
    rng = SplitMix64(7)
    assert rng._raw(3).tolist() == [7191089600892374487, 309689372594955804,
                                    16616101746815609346]


def test_raw_stream_continues_counter():
    whole = SplitMix64(7)._raw(5)
    rng = SplitMix64(7)
    np.testing.assert_array_equal(np.concatenate([rng._raw(2), rng._raw(3)]), whole)


def test_integer_needs_a_positive_bound():
    with pytest.raises(ValueError, match=r"^bound must be > 0, got 0$"):
        SplitMix64(1).integer(0)


def test_uniforms_pinned():
    assert SplitMix64(1).uniforms(2).tolist() == [0.566561575172281, 0.7457817572627012]


def test_normals_pinned():
    # Box-Muller goes through log, cos and sin, so allow a few ulps of libm.
    np.testing.assert_allclose(
        SplitMix64(1).normals(3),
        [1.0483480981738096, -0.19314576314771942, -0.7195957960051952], rtol=1e-14)
