"""Every Python block of the README runs as written against the package."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    # A fresh namespace per block, so no block leans on an earlier one.
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"),
         {"__name__": "readme_block"})
