import ast
import importlib
import os
import pathlib
import stat

import pytest

import tstransfer
from tstransfer.textfmt import atomic_write_bytes

PACKAGE = pathlib.Path(tstransfer.__file__).parent


def _opens_for_writing(tree):
    """Line numbers of `open(...)` calls whose mode is not a read-only literal."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        mode = modes[0] if modes else ast.Constant("r")
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")):
            yield node.lineno


def test_only_textfmt_opens_files_for_writing():
    # Every writer goes through textfmt's atomic writes, so a writer that
    # fails midway never leaves a truncated file in place of the old one.
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "textfmt.py"
        for line in _opens_for_writing(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_check_sees_a_write_mode():
    source = 'open(p)\nopen(p, "rb")\nopen(p, "w")\nopen(p, mode="a")\nopen(p, m)\n'
    assert list(_opens_for_writing(ast.parse(source))) == [3, 4, 5]


def test_every_exception_of_the_package_is_a_value_error():
    # cli.main reports ValueError, KeyError and OSError as "error: ..."; an
    # exception class outside ValueError would escape it as a traceback.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(importlib.import_module(f"tstransfer.{path.stem}"), node.name)
            if issubclass(cls, BaseException) and not issubclass(cls, ValueError):
                found.append(f"{path.name}:{node.name}")
    assert found == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_a_written_file_gets_the_mode_of_a_plain_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write_bytes(tmp_path / "atomic", b"x")
        with open(tmp_path / "plain", "wb") as fh:
            fh.write(b"x")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(os.stat(tmp_path / f).st_mode) for f in ("atomic", "plain")]
    assert modes == [0o666 & ~umask] * 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic", "plain"]
