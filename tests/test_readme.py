"""README's Python API block runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_api_block_runs():
    text = README.read_text()
    section = text.split("## Python API", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    exec(compile(block, str(README), "exec"), {})
