"""The public surface: the README quick start prints what its comments
say, the README's example session prints what it shows, and ``fistab``
exports exactly the names the demos and the quick start use.  What each
demo prints is pinned in ``tests/data`` (``tests/test_pins.py``)."""

import ast
import builtins
import re
import shlex
from pathlib import Path
from types import ModuleType

import pytest

import fistab

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def quick_start() -> str:
    """The python block under the README's "Quick start" heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def example_session() -> list[tuple[str, str]]:
    """Each ``$ fistab ...`` line of the README's example session, with
    the lines printed under it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("Example session", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    session = []
    for line in block.splitlines(keepends=True):
        if line.startswith("$ "):
            session.append((line[2:].strip(), ""))
        else:
            command, printed = session[-1]
            session[-1] = (command, printed + line)
    return session


def demo_imports() -> set[str]:
    """Names the demos import from the top-level package."""
    names = set()
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "fistab":
                names.update(alias.name for alias in node.names)
    return names


def quick_start_uses() -> set[str]:
    """Names the quick start reads without defining or taking from builtins;
    it star-imports fistab, so these are the names it needs from it."""
    tree = ast.parse(quick_start())
    loaded, stored = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            (loaded if isinstance(node.ctx, ast.Load) else stored).add(node.id)
    return loaded - stored - set(dir(builtins))


def test_readme_quick_start_results():
    # each result is a comment: on the line after the expression, or after
    # it on the same line, up to the first ',' or ':' of the explanation
    text = quick_start()
    lines = text.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(text).body:
        source = ast.get_source_segment(text, node)
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            continue
        trailing = lines[node.end_lineno - 1].partition("#")[2].strip()
        if trailing:
            expected = re.match(r"[^,:]+", trailing).group(0)
        else:
            expected = lines[node.end_lineno].lstrip("# ")
        assert eval(source, namespace) == ast.literal_eval(expected), source
        checked += 1
    assert checked == 4


@pytest.mark.parametrize("command,printed", [
    pytest.param(command, printed, id=command)
    for command, printed in example_session()
])
def test_readme_example_session(monkeypatch, capsys, command, printed):
    from fistab.cli import main

    monkeypatch.chdir(ROOT)
    program, *argv = shlex.split(command)
    assert program == "fistab"
    assert main(argv) == 0
    assert capsys.readouterr().out == printed


def test_public_names_are_what_demos_and_readme_use():
    used = demo_imports() | quick_start_uses()
    assert set(fistab.__all__) == used
    exported = {
        name for name, value in vars(fistab).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported == used


def test_only_the_budget_module_raises_resource_cap_error():
    raisers = {
        path.name
        for path in (ROOT / "src" / "fistab").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and "ResourceCapError" in ast.unparse(node)
    }
    assert raisers == {"budget.py"}
