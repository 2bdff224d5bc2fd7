"""The README's library example runs as documented."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_example():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    residual, _, verdict = out.getvalue().splitlines()
    assert float(residual) <= 1e-11
    assert verdict == "stable-certified"
