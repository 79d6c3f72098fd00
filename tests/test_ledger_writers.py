"""``GainLedger`` is the only code that writes the ledger's arrays: every
provider gain of a run is paid through ``GainLedger.accrue``, so a second
hand-written pay path cannot come back unnoticed. ``accrue`` writes through
memoryviews the ledger keeps in ``_views``, so the scan also flags any use of
that attribute, and any ``memoryview`` of a ledger array, outside the class. And ``accrue`` has two
callers: ``GainLedger.pay``, which pays served lists' expected gains, every
offline engine's among them; and ``sim._feedback``, which pays sampled
purchases interleaved with the online estimator's updates. The offline engines
are private to ``rankers``, behind ``serve_offline``: no other module imports an
underscore name from it."""

import ast
import pathlib

import equityrank

LEDGER_ARRAYS = {"exposure_gain", "purchase_gain", "group_exposure"}
LEDGER_VIEWS = "_views"
SOURCES = sorted(pathlib.Path(equityrank.__file__).parent.glob("*.py"))
ACCRUE_CALLERS = {("metrics", "GainLedger.pay"), ("sim", "_feedback")}


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


def _names(node):
    """Every attribute and variable name in ``node``'s subtree."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Attribute):
            yield inner.attr
        elif isinstance(inner, ast.Name):
            yield inner.id


def _ledger_writes(tree):
    """(line, name) of every subscript write to a ledger array, use of the ledger's views and
    ``memoryview`` of a ledger array outside ``class GainLedger``."""
    todo = list(ast.iter_child_nodes(tree))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.ClassDef) and node.name == "GainLedger":
            continue
        if isinstance(node, ast.Attribute) and node.attr == LEDGER_VIEWS:
            yield node.lineno, LEDGER_VIEWS
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "memoryview":
            args = [*node.args, *(keyword.value for keyword in node.keywords)]
            yield from ((node.lineno, name) for arg in args for name in _names(arg) if name in LEDGER_ARRAYS)
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            yield from ((node.lineno, name) for name in _written_names(target) if name in LEDGER_ARRAYS)
        todo.extend(ast.iter_child_nodes(node))


def _accrue_uses(module, tree, scope=""):
    """(line, scope) of every use of an ``accrue`` attribute outside the ``ACCRUE_CALLERS`` of
    ``module``; a scope is the dotted name of the classes and functions that enclose the use."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Attribute) and node.attr == "accrue" and (module, scope) not in ACCRUE_CALLERS:
            yield node.lineno, scope
        yield from _accrue_uses(module, node, inner)


def test_the_scan_sees_every_module_and_finds_a_write():
    assert {path.stem for path in SOURCES} >= {"metrics", "rankers", "sim"}
    probe = ast.parse("def f(ledger, g):\n    pg = ledger.purchase_gain\n    pg[g] += 1.0\n    purchase_gain[g] = 0.0\n")
    assert sorted(_ledger_writes(probe)) == [(4, "purchase_gain")]
    probe = ast.parse("def f(ledger, g):\n    ledger.exposure_gain[g], x = 1.0, 2.0\n")
    assert list(_ledger_writes(probe)) == [(2, "exposure_gain")]


def test_the_scan_flags_the_ledgers_views_outside_the_ledger():
    probe = ast.parse("def f(ledger, g):\n    eg, pg, ge = ledger._views\n    eg[g] = 1.0\n")
    assert list(_ledger_writes(probe)) == [(2, "_views")]
    probe = ast.parse("def f(ledger, g):\n    view = memoryview(ledger.purchase_gain)\n    view[g] = 1.0\n")
    assert list(_ledger_writes(probe)) == [(2, "purchase_gain")]
    inside = "class GainLedger:\n    def accrue(self, g):\n        eg, pg, ge = self._views\n        eg[g] = 1.0\n"
    assert list(_ledger_writes(ast.parse(inside))) == []


def test_only_the_gain_ledger_writes_its_arrays():
    writes = [
        f"{path.name}:{line} writes {name}"
        for path in SOURCES
        for line, name in _ledger_writes(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert writes == [], "pay providers through GainLedger.accrue: " + "; ".join(writes)


def test_the_accrue_scan_flags_a_call_anywhere_else():
    allowed = "class GainLedger:\n    def pay(self, g):\n        accrue = self.accrue\n        accrue(g)\n"
    assert list(_accrue_uses("metrics", ast.parse(allowed))) == []
    assert list(_accrue_uses("sim", ast.parse(allowed))) == [(3, "GainLedger.pay")]
    probes = {
        "ledger.accrue(0, 1.0, 0.5, p)\n": (1, ""),
        "def f(ledger):\n    ledger.accrue(0, 1.0, 0.5, p)\n": (2, "f"),
        "class GainLedger:\n    def accrue(self):\n        return self.accrue\n": (3, "GainLedger.accrue"),
        "def _feedback(s):\n    def inner():\n        s.ledger.accrue(0, 1.0, 0.0, p)\n": (3, "_feedback.inner"),
        "def _lockstep(ledgers):\n    pay = lambda g: ledgers[0].accrue(g, 1.0, 0.5, p)\n": (2, "_lockstep"),
    }
    for source, flagged in probes.items():
        assert list(_accrue_uses("sim", ast.parse(source))) == [flagged], source


def test_only_the_pay_loop_and_the_online_feedback_call_accrue():
    uses = [
        f"{path.name}:{line} in {scope or 'module'}"
        for path in SOURCES
        for line, scope in _accrue_uses(path.stem, ast.parse(path.read_text(), filename=str(path)))
    ]
    assert uses == [], "pay served lists through GainLedger.pay: " + "; ".join(uses)


def _private_imports(tree):
    """(line, module, name) of every underscore name that ``tree`` imports from ``rankers`` or ``sim``."""
    for node in ast.walk(tree):
        module = (node.module or "").split(".")[-1] if isinstance(node, ast.ImportFrom) else None
        if module in ("rankers", "sim"):
            yield from ((node.lineno, module, alias.name) for alias in node.names if alias.name.startswith("_"))


def test_no_other_module_imports_a_private_name_from_rankers():
    # nor from sim: a sweep reads a run's plan from rankers.plan_of and serves it through sim's drivers
    probe = ast.parse(
        "from .rankers import PolicyPlan, _lockstep\nfrom equityrank.rankers import _pay\n"
        "from .sim import SimConfig, _check_dataset\n"
    )
    assert sorted(_private_imports(probe)) == [(1, "rankers", "_lockstep"), (2, "rankers", "_pay"), (3, "sim", "_check_dataset")]
    imports = [
        f"{path.name}:{line} imports {module}.{name}"
        for path in SOURCES
        for line, module, name in _private_imports(ast.parse(path.read_text(), filename=str(path)))
        if module != path.stem
    ]
    assert imports == [], "serve runs through rankers.serve_offline and the sim drivers: " + "; ".join(imports)
