"""README's python quick-start block runs and gives the values its comments state."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def run_quick_start() -> list[tuple[object, str]]:
    """Run README's python block statement by statement.

    Returns (value, comment) for each expression statement, the comment
    being the text after '#' on its line.
    """
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    lines = block.splitlines()
    namespace: dict = {}
    results = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            results.append((value, lines[node.lineno - 1].partition("#")[2].strip()))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return results


def test_readme_quick_start_gives_the_values_its_comments_state():
    results = run_quick_start()
    values = [value for value, _ in results]
    assert values == ["mutually-bordered", (2, 2), 77025766, Fraction(3, 4), "0.072", True, 18]
    # each comment opens with the value's repr, apart from the width
    # check, whose comment says what True means
    for value, comment in results:
        assert comment.startswith(repr(value)) or (value is True and comment == "certified")
