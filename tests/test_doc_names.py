"""README.md and the package's docstrings name code as ``module.name`` or
``module.Class.attr`` between backticks. Each such name must resolve, so a
deletion that leaves a stale name in the docs fails here."""

import ast
import dataclasses
import importlib
import pathlib
import re

import equityrank

PACKAGE = pathlib.Path(equityrank.__file__).parent
README = PACKAGE.parent.parent / "README.md"
MODULES = ("cli", "core", "metrics", "plots", "rankers", "sim", "synth")
QUALIFIED = re.compile(r"`{1,2}(?:equityrank\.)?((?:" + "|".join(MODULES) + r")(?:\.[A-Za-z_]\w*)+)")


def _resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"equityrank.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            # a dataclass field without a default is no class attribute
            return dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}
        obj = getattr(obj, attr)
    return True


def _docstrings(path: pathlib.Path) -> str:
    tree = ast.parse(path.read_text(), filename=str(path))
    nodes = (n for n in ast.walk(tree) if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)))
    return "\n".join(filter(None, (ast.get_docstring(n, clean=False) for n in nodes)))


def _stale(text: str) -> list[str]:
    return [name for name in QUALIFIED.findall(text) if not _resolves(name)]


def test_the_scan_flags_a_name_that_does_not_resolve():
    text = "`rankers._equity_row`, ``sim.run_online``, `sim.OnlineState.slots(user)`, `sim.SimConfig.mode`, `core.Catalog.nope`"
    assert QUALIFIED.findall(text) == [
        "rankers._equity_row", "sim.run_online", "sim.OnlineState.slots", "sim.SimConfig.mode", "core.Catalog.nope"
    ]
    assert _stale(text) == ["rankers._equity_row", "core.Catalog.nope"]
    assert _stale("`sim.OnlineState.exposure` and ``equityrank.rankers.plan_of``") == []


def test_every_qualified_name_in_the_docs_resolves():
    texts = {"README.md": README.read_text()} | {path.name: _docstrings(path) for path in sorted(PACKAGE.glob("*.py"))}
    names = {where: QUALIFIED.findall(text) for where, text in texts.items()}
    assert sum(map(len, names.values())) > 0
    stale = [f"{where}: {name}" for where, found in names.items() for name in found if not _resolves(name)]
    assert stale == [], "; ".join(stale)
