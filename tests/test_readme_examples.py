"""The README's Python examples, run in order as one script.

A change to the library surface that the README shows cannot leave the
README stale: every ```python block must still run, and its assertions hold.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert blocks, "the README shows no Python example"
    exec(compile("\n".join(blocks), str(README), "exec"), {"__name__": "readme"})
