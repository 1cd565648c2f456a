"""The README "Library" example and the first two "Examples" commands
run and give the results their comments state, and its export list is
the package's."""

import ast
import json
import re
import shlex
from importlib import import_module
from pathlib import Path
from types import ModuleType

import edgering
from edgering import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block_values() -> dict[str, object]:
    """Run the ```python block under "## Library" statement by statement;
    return the value of each expression statement, keyed by its source."""
    match = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert match, "README has no python block under ## Library"
    source = match.group(1)
    scope: dict = {}
    values = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            values[ast.get_source_segment(source, node)] = eval(
                compile(ast.Expression(node.value), "README.md", "eval"), scope
            )
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), scope)
    return values


def test_readme_library_block():
    values = library_block_values()
    pairs = values["er.exceptional_pairs(g)"]
    assert [(p.first, p.second) for p in pairs] == [((1, 2, 3), (5, 6, 7))]
    assert values["er.satisfies_odd_cycle_condition(g)"] is False
    assert values["er.in_sbar(g, alpha), er.in_S(g, alpha)"] == (True, None)
    assert values["er.in_S(g, tuple(2 * x for x in alpha))"].total_edges() == 6
    assert values["report.verdict, report.gap_count, report.exhaustive"] == ("NonNormalS2Verified", 462, True)


def test_readme_family_and_analyze_examples(tmp_path, monkeypatch, capsys):
    """`family --d 7 --n 8 --output g.graph`, then `analyze --input g.graph`,
    run through ``cli.main`` in a temporary directory; the report's verdict and
    gap count are the ones the README's comment states."""
    match = re.search(r"^### Examples\n\n```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert match, "README has no sh block under ### Examples"
    family, analyze = match.group(1).splitlines()[:2]
    command, comment = analyze.split("#")
    assert shlex.split(family)[:5] == ["edgering", "family", "--d", "7", "--n"]
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(family)[1:]) == 0
    capsys.readouterr()
    assert cli.main(shlex.split(command)[1:]) == 0
    report = json.loads(capsys.readouterr().out)
    assert comment.strip() == "NonNormalS2Verified, 462 gap elements"
    assert f"{report['verdict']}, {report['gap_count']} gap elements" == comment.strip()


def test_readme_lists_the_exports():
    """Each bullet of the export list is a module and the public names
    ``edgering`` exports from it, all of them."""
    text = re.search(r"^The package exports, by module:\n\n(.*?)\n\n", README.read_text(encoding="utf-8"), re.M | re.S)
    listed = [re.findall(r"`(\w+)`", item) for item in text.group(1).split("\n- ")]
    assert all(hasattr(import_module(f"edgering.{module}"), name) for module, *names in listed for name in names)
    exported = {n for n, v in vars(edgering).items() if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert sorted(name for _, *names in listed for name in names) == sorted(exported)
