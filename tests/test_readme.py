"""README.md's examples run and print what the README says they print.

Each ```python block is executed on its own.  A "# " comment line directly
below a print call is that call's expected output.  Printed lines must equal
it exactly, except for the quantities in BOUNDS, whose printed value must
stay below the bound the README states for it.

Each "$ hlqr ..." line of a ```sh block runs through hlqr.cli.main in a
temporary directory, so its relative --out lands there.  The lines below it,
up to the next blank line, are its exact output.

The LAPACK routines the README names are the ones hlqr._lapack binds, and
each of them is used by another module of hlqr.
"""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from hlqr import _lapack
from hlqr.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

#: printed label -> upper bound on the value after it
BOUNDS = {"relative gain error vs model-based": 1e-8}


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def expected_output(source):
    """The comment lines directly below each print call, in order."""
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            below = node.end_lineno  # 0-based index of the next line
            if below < len(lines) and lines[below].startswith("# "):
                out.append((node.lineno, lines[below][2:]))
    return [text for _, text in sorted(out)]


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_readme_example_output(index):
    source = python_blocks()[index]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(source, f"README.md block {index}", "exec"), {})
    printed = buf.getvalue().splitlines()
    expected = expected_output(source)
    assert expected and len(printed) == len(expected)
    for got, want in zip(printed, expected):
        label = want.partition(": ")[0]
        if label in BOUNDS:
            assert got.startswith(label + ": ")
            assert float(got.split(": ")[1]) < BOUNDS[label]
        else:
            assert got == want


def shell_examples():
    """(argv, expected output lines) of each "$ hlqr" line in sh blocks."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for chunk in block.split("\n\n"):
            command, *output = chunk.strip().splitlines()
            if command.startswith("$ hlqr "):
                examples.append((shlex.split(command)[2:], output))
    return examples


SHELL_EXAMPLES = shell_examples()


@pytest.mark.parametrize("argv, expected", SHELL_EXAMPLES,
                         ids=["-".join(argv[:2]) for argv, _ in SHELL_EXAMPLES])
def test_readme_shell_example_output(argv, expected, tmp_path, monkeypatch,
                                     capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == expected


def bound_routines():
    """The names hlqr._lapack binds to routines of scipy's LAPACK wrappers."""
    return {name for name, value in vars(_lapack).items()
            if getattr(_lapack._flapack, name, None) is value}


def test_readme_names_bound_lapack_routines():
    names = re.search(r"LAPACK\s+routines\s+\(([^)]*)\)", README.read_text()).group(1)
    assert sorted(re.findall(r"`(\w+)`", names)) == sorted(bound_routines())


def test_every_bound_lapack_routine_is_used():
    # a use is _lapack.<name>, or a name imported from ._lapack and then
    # read in the importing module; a binding nothing uses is dead
    used = set()
    for path in Path(_lapack.__file__).parent.glob("*.py"):
        if path.name == "_lapack.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "_lapack"):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "_lapack":
                used.update(alias.name for alias in node.names if alias.name in read)
    assert bound_routines() <= used, sorted(bound_routines() - used)


def test_no_nonsymmetric_eigensolver():
    # README: hlqr has no Schur form, and the doubling certificate decides
    # every Hurwitz question, so no module reads np.linalg.eig or eigvals
    # (LAPACK dgeev, which reduces to a Schur form)
    found = []
    for path in Path(_lapack.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in ("eig", "eigvals")
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                found.extend(f"{path.name}:{node.lineno}" for alias in node.names
                             if alias.name in ("eig", "eigvals"))
    assert not found, found
