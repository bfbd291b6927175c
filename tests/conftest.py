"""Shared fixtures: small seeded SBM sequences used across test modules."""

import pytest

from dynembed.sbm import SbmParams, diminish_series


@pytest.fixture(scope="session")
def small_sbm():
    """20-node, 4-snapshot drifting SBM used by several training tests."""
    params = SbmParams(node_num=20, community_num=2, length=4,
                       diminish_community=0, node_change_num=1,
                       p_in=0.9, p_out=0.05, seed=3)
    return diminish_series(params)


@pytest.fixture(scope="session")
def drift_sbm_50():
    """50-node, 5-snapshot drifting SBM at the default edge probabilities."""
    params = SbmParams(node_num=50, community_num=2, length=5,
                       diminish_community=0, node_change_num=2, seed=7)
    return diminish_series(params)
