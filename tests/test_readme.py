"""README's Python examples run as written, so the API they show cannot go
stale."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def write_ads_csv(path, m=200, n=3):
    """A seeded two-Gaussian table: label -1 rows around 0, +1 rows around 1."""
    rng = np.random.default_rng(31)
    labels = np.repeat([-1, 1], m // 2)
    X = rng.normal(0.0, 1.0, (m, n)) + (labels[:, None] > 0)
    lines = [",".join([f"x{i}" for i in range(n)] + ["label"])]
    lines += [",".join([*map(repr, row.tolist()), str(y)]) for row, y in zip(X, labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_the_hand_made_tree_example_builds_an_ensemble():
    assert any("TreeEnsemble(trees_from_nodes([" in block for block in BLOCKS)


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(block, tmp_path, monkeypatch):
    # The library-use example reads ads.csv from the working directory.
    write_ads_csv(tmp_path / "ads.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
