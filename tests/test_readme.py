"""The README's Python examples run as written and print what they claim."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def _run(source: str) -> str:
    # Each block runs in a fresh namespace, so it must do its own imports.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
    return out.getvalue()


def test_quick_start_prints_documented_peak():
    # the quick start's comment promises "59 59 0.520..."
    t_star, argmax, peak = _run(BLOCKS[0]).splitlines()[0].split()
    assert (t_star, argmax) == ("59", "59")
    assert peak.startswith("0.520")


@pytest.mark.parametrize("index", range(1, len(BLOCKS)))
def test_readme_example_runs(index):
    _run(BLOCKS[index])
