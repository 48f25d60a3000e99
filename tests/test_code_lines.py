"""tools/code_lines.py counts the lines that hold code: not blank lines,
comments or docstrings, but every line of a string that is no docstring."""

import runpy
from pathlib import Path

TOOL = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools"
                          / "code_lines.py"))

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment alone
class C:
    """Class docstring."""

    def f(self):
        """Function docstring,
        over two lines."""
        text = """a string
        that is no docstring"""
        return (text,
                os.sep)
'''


def test_counts_code_not_blanks_comments_or_docstrings():
    # import, class, def, the string's two lines and the return's two
    assert TOOL["code_lines"](SOURCE) == 7
