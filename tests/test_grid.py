"""Every config of the digest grid reproduces its pinned bundle bytes.

The grid and the script that rewrites it are in ``golden_grid.py``.
"""

import pytest

from golden_grid import GRID, bundle_digests, config_label, load_grid

CONFIGS = load_grid()


def test_grid_covers_its_declaration():
    pinned = {config_label(c["scenario"], c["params"]) for c in CONFIGS}
    assert pinned <= {config_label(s, p) for s, p in GRID}
    assert len(pinned) == len(CONFIGS) > 0


@pytest.mark.parametrize("config", CONFIGS, ids=[config_label(c["scenario"], c["params"]) for c in CONFIGS])
def test_grid_bundle_bytes(config, tmp_path):
    assert bundle_digests(config["scenario"], config["params"], str(tmp_path)) == config["digests"]
