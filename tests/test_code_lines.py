"""tools/code_lines.py, the counter behind the code-line figures quoted in
CHANGES.md and ROADMAP.md."""

import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a comment on a code line

# a comment alone


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring
        with a second line."""
        total = (1 +
                 2)
        text = """a string on two lines,
        not a docstring"""
        return total, text


def short(): """A docstring on the def line."""
'''


def test_only_lines_with_code_count(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    code_lines = importlib.import_module("code_lines")
    # import, class, def, both lines of total, both of text, return, short
    assert code_lines.count_code_lines(SNIPPET) == 9
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET, encoding="utf-8")
    assert code_lines.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"     9  {path}", f"     9  {path}",
                                                    "    18  total"]
