import importlib.util
import os

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a comment after code


# a comment line
def f(x):
    """Function docstring."""
    s = """a string that is not a docstring
    spans two lines"""
    return (x +
            math.pi)


class C:
    """Class docstring."""

    y = 1
'''


def test_counts_lines_with_code_outside_comments_and_docstrings():
    # import, def, the two lines of s, return and its continuation, class, y
    assert code_lines.code_lines(FIXTURE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n# comment\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["8", "a.py", "1", "b.py", "9", "total"]
