"""README's library quick start runs as written."""

import re
from pathlib import Path

import metamargin as mm

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The one Python block of README's "Library quick start" section."""
    section = README.read_text().split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_quick_start_runs(capsys):
    namespace: dict = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    selection, report, risk = namespace["selection"], namespace["report"], namespace["risk"]
    assert selection.chosen in namespace["family"].maps
    assert selection.losses.shape == (len(namespace["family"].maps),)
    assert isinstance(report, mm.BoundReport) and report.kind == "vc"
    assert 0.0 <= risk.risk <= 1.0
    assert capsys.readouterr().out.split() == [str(report.total), str(report.vacuous), str(risk.risk)]
