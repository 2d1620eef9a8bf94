"""The README's Library quick start runs as documented."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block():
    section = README.read_text().split("## Library quick start", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    return block


def test_library_quick_start_prints_what_it_documents():
    namespace = {}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(quick_start_block(), str(README), "exec"), namespace)
    brute, closed, p_e_hat = stdout.getvalue().splitlines()
    assert brute == "0.18379127246930158"
    assert abs(float(closed) - float(brute)) <= 1e-10
    expected = float(brute)
    accepted = namespace["stats"].accepted_total
    sigma = math.sqrt(expected * (1.0 - expected) / accepted)
    assert abs(float(p_e_hat) - expected) <= 5 * sigma
