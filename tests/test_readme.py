"""The library example in README.md runs and prints what it promises."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    *body, last = block.strip().splitlines()
    expr, _, promised = last.partition("#")
    scope: dict = {}
    exec("\n".join(body), scope)
    assert eval(expr, scope) == ast.literal_eval(promised.strip()) == (134, 1, 135)
