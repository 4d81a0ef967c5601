"""README's library quick start runs, and its commented values hold."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_values_hold():
    # An expression line "expr  # value ..." is evaluated, and its value printed
    # must equal the comment's first word, or start with it when that word
    # ends in "...". Every other line is executed.
    namespace = {}
    checked = []
    for line in quick_start_block().splitlines():
        code, _, comment = line.partition("#")
        tree = ast.parse(code)
        if not (comment.strip() and len(tree.body) == 1 and isinstance(tree.body[0], ast.Expr)):
            exec(line, namespace)
            continue
        value = str(eval(code, namespace))
        word = comment.split()[0].rstrip(":")
        prefix, dots, _ = word.partition("...")
        assert value.startswith(prefix) if dots else value == word, (line, value)
        checked.append(word)
    assert checked == ["True", "[0.57735...]", "0.40141...", "1"]
