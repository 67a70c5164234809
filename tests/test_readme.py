"""The README's Library examples run as written and say what they compute."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_examples_run_in_one_namespace():
    # the second block uses the names the first defines, as a reader would
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    ns = {}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), ns)
    # the values the second block's comments state
    assert ns["clones"].mat.shape == (3, 2, 2)
    np.testing.assert_allclose(ns["fids"], [7 / 9] * 3, atol=1e-12)
    np.testing.assert_allclose(ns["dists"], [np.sqrt(2) * (1 - np.sqrt(7 / 9)) ** 0.5] * 3, atol=1e-12)
    np.testing.assert_allclose(ns["mean"], 5 / 6, atol=1e-12)
