"""The CI workflow runs only tests that exist.

`.github/workflows/tests.yml` runs some test files and node ids by name.  A
renamed or deleted test would leave a name that pytest rejects only when
the workflow runs, so the workflow is read here as text (PyYAML is not a
test dependency) and every file and node id in it is resolved by `ast`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

#: A file of the checkout by its path, with the node id that follows it, if
#: any: `tests/test_x.py::TestY::test_z`.
NODE_ID = re.compile(r"(?<![\w/])((?:tests|bench)/\w+\.py)((?:::\w+)*)")


def defined(path: Path, names: list[str]) -> bool:
    """Whether the module at `path` defines the class or function `names`,
    each name in the body of the one before it."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = [
            node for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


def test_the_workflow_names_existing_files_and_node_ids():
    references = NODE_ID.findall(WORKFLOW.read_text(encoding="utf-8"))
    assert any(names for _, names in references)
    missing = [
        path + names
        for path, names in references
        if not (ROOT / path).is_file() or not defined(ROOT / path, names.split("::")[1:])
    ]
    assert missing == []
