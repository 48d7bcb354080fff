"""The README's Python example runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_prints_what_its_comments_say():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    names, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), names)
    eigenvalues, witness, gap = out.getvalue().splitlines()
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    # numpy's own rendering of the exact eigenvalues, spacing included
    assert comments[0] == eigenvalues == "[-0.5 -0.5  0.   0.   0.   0.   0.5  0.5  1. ]"
    assert np.array_equal(names["sot"].eigenvalues(), [-0.5, -0.5, 0, 0, 0, 0, 0.5, 0.5, 1])
    assert witness == "(-0.5, 1.0)" and comments[1].startswith(witness)
    assert abs(float(gap) - 2.0) <= 1e-12
