"""Checks over the package source as a whole."""

import ast
import importlib
import importlib.util
import os
import pathlib
import re
import shlex
import subprocess
import sys

import hypcert
from hypcert.cli import main

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


def test_no_object_arrays():
    # the package computes exactly in Python ints and Fractions and in
    # floats on float arrays: no numpy array of Python objects
    found = ["%s:%d" % (name, node.lineno) for name, node in _nodes()
             if (isinstance(node, ast.keyword) and node.arg == "dtype"
                 and ast.unparse(node.value) in ("object", "'O'", "'object'",
                                                 "np.object_"))
             or (isinstance(node, ast.Attribute)
                 and node.attr == "frompyfunc")]
    assert found == []


def test_numpy_linalg_only_in_minimize():
    # only the scans (grid, verifier) and the minimize verb import numpy:
    # the other modules compute in Python numbers alone (symbols
    # broadcasts over the arrays it is given without importing numpy, and
    # spectral finds the displayed roots in pure Python), and LAPACK
    # serves only the Newton of module minimize
    found = ["%s:%d" % (name, node.lineno) for name, node in _nodes()
             if name not in ("grid.py", "verifier.py", "minimize.py")
             and isinstance(node, (ast.Import, ast.ImportFrom))
             and "numpy" in ast.unparse(node)]
    allowed = {("minimize.py", "minimize_Q"), ("minimize.py", "_newton")}
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            where = (path.name, getattr(top, "name", None))
            found += ["%s:%d" % (path.name, node.lineno)
                      for node in ast.walk(top)
                      if isinstance(node, ast.Attribute)
                      and node.attr == "linalg" and where not in allowed]
    assert found == []


def test_perfbench_trace_hooks_resolve():
    # perfbench's traced run wraps each LAYERS entry, by module and dotted
    # attribute, and a layer it cannot find reads 0: a rename in the
    # package would zero its metric silently.  Only the three scan layers
    # that certify_region replaced are missing, and minimize_Q, which
    # moved to module minimize (certify runs no Newton, so its metrics
    # read 0 either way)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = set()
    for _, module, attr, _, _ in tracing.LAYERS:
        owner = importlib.import_module("hypcert." + module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            unresolved.add("%s.%s" % (module, attr))
    assert unresolved <= {"verifier.verify_nonnegativity",
                          "verifier.estimate_c", "verifier.estimate_kappa",
                          "verifier.minimize_Q"}


def test_every_export_is_read():
    # a name in __all__ that only its own tests read is code to delete: each
    # must occur, off its def or class line, in a package module other
    # than __init__.py, in scripts/, perfbench/, the README or the
    # acceptance tests
    paths = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    for folder in ("scripts", "perfbench"):
        paths += sorted((ROOT / folder).rglob("*.py"))
        paths += sorted((ROOT / folder).rglob("*.md"))
    paths += [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    lines = [line for p in paths for line in p.read_text().splitlines()]
    unread = []
    for name in hypcert.__all__:
        word = re.compile(r"\b%s\b" % re.escape(name))
        own = re.compile(r"\s*(def|class)\s+%s\b" % re.escape(name))
        if not any(word.search(line) and not own.match(line)
                   for line in lines):
            unread.append(name)
    assert unread == []


def _defined_and_read(path):
    """(module-level definitions, names read) of one file: the names of
    its top-level functions, classes and assigned constants, and every
    name and attribute it reads, a definition's reads of its own name
    aside."""
    defined, read = [], set()
    for top in ast.parse(path.read_text(), str(path)).body:
        own = getattr(top, "name", None)
        if own is not None:
            defined.append(own)
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) \
                else [top.target]
            defined += [node.id for target in targets
                        for node in ast.walk(target)
                        if isinstance(node, ast.Name)]
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name)
                    and not isinstance(node.ctx, ast.Store)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if name is not None and name != own:
                read.add(name)
    return defined, read


def test_every_definition_is_read_outside_tests():
    # the rule of test_every_export_is_read, past __all__: a module-level
    # function, class or constant of the package that no package module,
    # script or benchmark file reads is code only its tests use
    paths = sorted(SRC.rglob("*.py"))
    for folder in ("scripts", "perfbench"):
        paths += [p for p in sorted((ROOT / folder).rglob("*.py"))
                  if not p.name.startswith("test_")]
    defined, read = [], set()
    for path in paths:
        names, reads = _defined_and_read(path)
        read |= reads
        if path.is_relative_to(SRC):
            defined += ["%s.%s" % (path.stem, name) for name in names
                        if not name.startswith("__")]
    assert [name for name in defined
            if name.split(".")[1] not in read] == []


def _caught_names():
    """Every name in an except clause of the package, scripts/ and
    perfbench/ (the attribute of a dotted one)."""
    paths = sorted(SRC.rglob("*.py"))
    for folder in ("scripts", "perfbench"):
        paths += sorted((ROOT / folder).rglob("*.py"))
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = (node.type.elts if isinstance(node.type, ast.Tuple)
                         else [node.type])
                names.update(t.id if isinstance(t, ast.Name) else t.attr
                              for t in types)
    return names


def test_every_exception_class_is_caught():
    # an error class that no caller catches tells a caller nothing that
    # its base class with the same message does not: each one the
    # package defines must be named in an except clause
    caught = _caught_names()
    uncaught = []
    for name, node in _nodes():
        if isinstance(node, ast.ClassDef):
            module = importlib.import_module("hypcert." + name[:-3])
            cls = getattr(module, node.name, None)
            if (isinstance(cls, type) and issubclass(cls, BaseException)
                    and node.name not in caught):
                uncaught.append(node.name)
    assert uncaught == []


def _loaded(verb, tmp_path, *modules):
    """hypcert's exit code for verb on b2, run in a fresh process, then
    whether each of modules is in its sys.modules afterwards."""
    code = ("import sys; from hypcert.cli import main; "
            "rc = main([sys.argv[1], sys.argv[2], '--out', sys.argv[3]]); "
            "print(rc, *(m in sys.modules for m in sys.argv[4:]))")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, verb, str(ROOT / "fixtures" / "b2.json"),
         str(tmp_path / "rep.json"), *modules],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_certify_does_not_load_openssl(tmp_path):
    # input_hash comes from CPython's built-in SHA-256 where the build has
    # one; hashlib would map OpenSSL's libcrypto into every certify
    built_in = any(importlib.util.find_spec(name) is not None
                   for name in ("_sha2", "_sha256"))
    assert _loaded("certify", tmp_path, "_hashlib") == ["0",
                                                        str(not built_in)]


def test_classify_loads_no_scan_module(tmp_path):
    # classify reads no array: numpy, the block walker and the scans stay
    # unloaded, as does everything only certify or minimize runs
    assert _loaded("classify", tmp_path, "numpy", "hypcert.grid",
                   "hypcert.verifier", "hypcert.time_functions",
                   "hypcert.minimize") == ["0"] + ["False"] * 5


def test_certify_loads_no_minimize_code(tmp_path):
    # the Newton, its evaluator and the cutoff's derivatives are the
    # minimize verb's alone
    assert _loaded("certify", tmp_path, "hypcert.minimize") == ["0", "False"]


def test_minimize_loads_no_scan_module(tmp_path):
    # minimize builds the functional and runs the Newton, no scan
    assert _loaded("minimize", tmp_path, "hypcert.grid", "hypcert.verifier",
                   "hypcert.time_functions") == ["0"] + ["False"] * 3


def test_dataclass_only_where_replace_is_called():
    # a dataclass generates its methods with exec when its module is
    # imported; the others are NamedTuples or classes with a written
    # __init__.  These two stay dataclasses because dataclasses.replace
    # is called on them: on SymbolFile by cli._apply_overrides (region and
    # slack), perfbench/run.py and scripts/stage_times.py (region); on
    # Region by cli._apply_overrides (--region and --grid)
    found = {node.name for _, node in _nodes()
             if isinstance(node, ast.ClassDef)
             and any("dataclass" in ast.unparse(dec)
                     for dec in node.decorator_list)}
    assert found == {"SymbolFile", "Region"}


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


def _readme_commands():
    """The `hypcert ...` lines of the README's command-line block, as argv
    lists (comments dropped)."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n")[1]
    block = section.split("```\n")[1]
    return [shlex.split(line.split("#")[0])[1:] for line in block.splitlines()
            if line.startswith("hypcert ")]


def test_readme_command_line_examples_run(monkeypatch, capsys):
    # each README command through cli.main, from the repository root, with
    # the exit code the README's status table gives for its verdict
    monkeypatch.chdir(ROOT)
    b2 = "fixtures/b2.json"
    want = [
        (["certify", b2], 0, '"status": "CERTIFIED"'),
        (["certify", b2, "--format", "text"], 0, "status: CERTIFIED"),
        (["classify", b2], 0, '"status": "NOT_APPLICABLE"'),
        (["minimize", b2, "--mode", "normalized"], 0, '"mode": "normalized"'),
    ]
    assert _readme_commands() == [argv for argv, _, _ in want]
    for argv, code, shown in want:
        assert main(argv) == code, argv
        assert shown in capsys.readouterr().out, argv
