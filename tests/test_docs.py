import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def quickstart_block():
    """The first ``python`` code block of README's library quick start."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quickstart_runs(capsys):
    exec(compile(quickstart_block(), "README.md quickstart", "exec"), {})
    out = capsys.readouterr().out
    kkt = float(re.search(r"^kkt: (\S+)$", out, re.MULTILINE).group(1))
    assert kkt <= 1e-10
    assert "distance to saddle:" in out
