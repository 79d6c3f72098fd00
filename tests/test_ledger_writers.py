"""``GainLedger`` is the only code that writes the ledger's arrays: every
provider gain of a run is paid through ``GainLedger.accrue``, so a second
hand-written pay path cannot come back unnoticed."""

import ast
import pathlib

import equityrank

LEDGER_ARRAYS = {"exposure_gain", "purchase_gain", "group_exposure"}
SOURCES = sorted(pathlib.Path(equityrank.__file__).parent.glob("*.py"))


def _written_names(target):
    """The array names that an assignment target writes by subscript, as
    ``x.name[...]`` or ``name[...]`` (a local alias), through tuple targets."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _written_names(element)
    elif isinstance(target, ast.Starred):
        yield from _written_names(target.value)
    elif isinstance(target, ast.Subscript):
        base = target.value
        if isinstance(base, ast.Attribute):
            yield base.attr
        elif isinstance(base, ast.Name):
            yield base.id


def _ledger_writes(tree):
    """(line, name) of every subscript write to a ledger array outside ``class GainLedger``."""
    todo = list(ast.iter_child_nodes(tree))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.ClassDef) and node.name == "GainLedger":
            continue
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            yield from ((node.lineno, name) for name in _written_names(target) if name in LEDGER_ARRAYS)
        todo.extend(ast.iter_child_nodes(node))


def test_the_scan_sees_every_module_and_finds_a_write():
    assert {path.stem for path in SOURCES} >= {"metrics", "rankers", "sim"}
    probe = ast.parse("def f(ledger, g):\n    pg = ledger.purchase_gain\n    pg[g] += 1.0\n    purchase_gain[g] = 0.0\n")
    assert sorted(_ledger_writes(probe)) == [(4, "purchase_gain")]
    probe = ast.parse("def f(ledger, g):\n    ledger.exposure_gain[g], x = 1.0, 2.0\n")
    assert list(_ledger_writes(probe)) == [(2, "exposure_gain")]


def test_only_the_gain_ledger_writes_its_arrays():
    writes = [
        f"{path.name}:{line} writes {name}"
        for path in SOURCES
        for line, name in _ledger_writes(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert writes == [], "pay providers through GainLedger.accrue: " + "; ".join(writes)
