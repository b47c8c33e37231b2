"""tools/code_lines.py counts the lines that hold code: not blank lines,
comments or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


# a comment line
class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self,
          y):
        """Function docstring."""
        return (y +
                1)


async def g():
    """Only a docstring."""
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_of_a_fixture(tmp_path, capsys):
    tool = _tool()
    # import, class, the two-line string, the two-line def, the two-line
    # return, async def
    assert tool.code_lines(SOURCE) == 9
    path = tmp_path / "fixture.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert tool.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        f"     9 {path}", f"     9 {path}", "    18 total", ""]
