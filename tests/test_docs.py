import importlib
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


def test_readme_module_names_resolve():
    # every backticked `<module>.<name>` README gives for a package module
    # names something that exists, so a deletion cannot leave README stale
    with open(README, encoding="utf-8") as fh:
        prose = re.sub(r"```.*?```", "", fh.read(), flags=re.DOTALL)
    spans = re.findall(r"`([^`]+)`", prose)
    modules = ("diagnostics", "functions", "linops", "solver", "experiments",
               "problems", "reference", "cli", "errors")
    pattern = re.compile(rf"({'|'.join(modules)})((?:\.[A-Za-z_]\w*)+)")
    names = [m.group(1, 2) for m in map(pattern.match, spans) if m]
    assert len(names) >= 16
    for module, attrs in names:
        owner = importlib.import_module(f"vmadmm.{module}")
        for attr in attrs[1:].split("."):
            assert hasattr(owner, attr), f"README names {module}{attrs}"
            owner = getattr(owner, attr)
