"""The Python examples of README.md run as written: every ```python block, in order, in one namespace."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order():
    with open(README) as fh:
        text = fh.read()
    blocks = python_blocks(text)
    assert blocks and len(blocks) == text.count("```python")  # no block is skipped
    namespace: dict = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
