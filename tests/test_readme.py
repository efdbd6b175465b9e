"""The README's library quick start runs and meets the guarantee it prints."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def test_quick_start_gap_is_below_its_guarantee():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(blocks[0], README, "exec"), {"__name__": "readme"})
    printed = dict(line.split(": ", 1) for line in stdout.getvalue().splitlines())
    assert sorted(printed) == ["final gap", "guaranteed"]
    assert float(printed["final gap"]) < float(printed["guaranteed"])
