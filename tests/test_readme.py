"""The README's "Library entry points" block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_entry_points_block_runs():
    text = README.read_text()
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["check"].passed
    assert scope["sketch"].shape == (scope["mul"].phi.m,)
    assert scope["estimates"].shape == (128,)
