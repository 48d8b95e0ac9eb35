"""README's library tour runs as written, so a public name that it uses
cannot go away without a failing test."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "the library tour has no python block"
    exec(compile(block.group(1), f"{README}:library tour", "exec"), {})
