"""The README's Library example runs, and gives the numbers its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(code, names)
    pol, root, limit = names["pol"], names["root"], names["limit"]
    assert pol.k_n == 57 and round(pol.value, 4) == 0.6875
    assert abs(root.x_star - 0.2599717) <= 1e-7
    assert abs(root.value_at_root - 0.5947294) <= 1e-7
    assert abs(limit.x_star - 0.6162059) <= 1e-7
    assert abs(limit.value_at_root - 0.7834922) <= 1e-7
