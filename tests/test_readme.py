"""The README's Python quick example runs and gives the values its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
# A line `expression  # value ...` states the value of the expression.
STATED = re.compile(r"(\S[^#]*?)\s+# (-?\d+)\b.*")


def test_the_python_quick_example_gives_its_commented_values():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    stated = {m[1]: int(m[2]) for m in map(STATED.fullmatch, block.splitlines()) if m}
    assert stated == {"report.rank": 6, "report.kernel_dim": 0}
    for expression, value in stated.items():
        assert eval(expression, namespace) == value, expression
