"""The README's Python examples run against the library as it is."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("n", range(len(BLOCKS)))
def test_readme_python_block_runs(n, capsys):
    exec(compile(BLOCKS[n], f"README.md python block {n + 1}", "exec"), {})
