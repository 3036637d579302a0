"""The README's library quick tour runs as written, and its comments hold."""

import re
from pathlib import Path

from chronotax import ChronotaxicClass, PointKind

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    """The ```python fenced blocks of ``text``, in order."""
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_quick_tour_runs_and_its_comments_hold(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = python_blocks(text)
    assert len(blocks) == 2
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    capsys.readouterr()  # the tour prints the ridge's median frequency

    # "one stable node here", "ChronotaxicClass.TYPE_II"
    assert [q.kind for q in ns["points"]] == [PointKind.STABLE_NODE]
    assert ns["label"] is ChronotaxicClass.TYPE_II
    # "sweep.eps_c1 = 0.46538191232864..., sweep.eps_c2 = 1.21373685456121...,
    # sweep.eps_c3 == 7.0": the truncated digits lead the values' reprs
    sweep = ns["sweep"]
    stated = re.findall(r"sweep\.(eps_c\d) (==|=) ([0-9.]+?)(\.\.\.)?[,\s]", blocks[0])
    assert sorted(name for name, *_ in stated) == ["eps_c1", "eps_c2", "eps_c3"]
    for name, op, digits, dots in stated:
        value = getattr(sweep, name)
        if op == "==":
            assert value == float(digits), name
        else:
            assert dots and repr(value).startswith(digits), (name, value)
