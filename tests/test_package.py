"""Checks over the package source as a whole."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hypcert"


def _nodes():
    """(module file name, node) for every AST node of the package."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_no_assert_statements():
    # python -O strips assert, so a check written with it vanishes there
    found = ["%s:%d" % (name, node.lineno) for name, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def _threads_or_environment(node) -> bool:
    banned = {"threading", "concurrent"}
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] in banned for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return (module.split(".")[0] in banned
                or (module == "os" and any(a.name in ("environ", "getenv")
                                           for a in node.names)))
    return (isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def test_no_threads_or_environment_settings():
    # the scans are serial and every setting is a flag or a file field, so
    # a report depends only on its input
    found = ["%s:%d" % (name, node.lineno) for name, node in _nodes()
             if _threads_or_environment(node)]
    assert found == []


def test_readme_library_example_runs():
    # the README's library example is code a reader copies; run it as is
    section = (ROOT / "README.md").read_text().split("\n## Library\n")[1]
    code = section.split("```python\n")[1].split("```")[0]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    report = scope["report"]
    assert (report.c_est, report.kappa_est) == (1.0, 0.5)
    assert scope["structural"].passed
