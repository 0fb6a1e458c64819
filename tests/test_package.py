import ast
import pathlib

import geoflow

SRC = pathlib.Path(geoflow.__file__).parent


def test_no_assert_statements_in_package():
    # invariant checks must raise classified errors, which python -O keeps
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
