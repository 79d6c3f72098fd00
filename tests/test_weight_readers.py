"""The providers' weights have one form past the public boundary: the float64
``(v_e, v_b, y)`` arrays that ``core.provider_arrays`` stacks from the
profiles. Rankers, ledgers and metrics read those arrays, or Python floats
taken from them, so no engine can pay or score at a profile's own precision.
The scan flags every read of a ``ProviderProfile`` weight attribute, or of its
name as a string (``getattr``), outside ``core``'s ``ProviderProfile`` and
``provider_arrays`` and ``metrics.expected_gain``, which scores one list
from one profile."""

import ast
import pathlib

import equityrank

WEIGHTS = {"exposure_value", "purchase_value", "gain_target"}
SOURCES = sorted(pathlib.Path(equityrank.__file__).parent.glob("*.py"))
# (module, top-level class or function) whose code may read a profile's weights
READERS = {("core", "ProviderProfile"), ("core", "provider_arrays"), ("metrics", "expected_gain")}


def _weight_reads(module, tree):
    """(line, scope) of every read of a weight attribute, or use of a weight's name as a string,
    outside the ``READERS`` of ``module``; a scope is the dotted name of the enclosing classes
    and functions. Keyword arguments, as in ``ProviderProfile(exposure_value=...)``, are not reads."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (module, scope.split(".")[0]) not in READERS:
                if isinstance(child, ast.Attribute) and child.attr in WEIGHTS:
                    yield child.lineno, scope
                elif isinstance(child, ast.Constant) and child.value in WEIGHTS:
                    yield child.lineno, scope
            yield from walk(child, inner)

    yield from walk(tree, "")


def test_the_scan_flags_a_read_anywhere_else():
    reader = "def provider_arrays(profiles):\n    return [p.gain_target for p in profiles]\n"
    assert list(_weight_reads("core", ast.parse(reader))) == []
    assert list(_weight_reads("rankers", ast.parse(reader))) == [(2, "provider_arrays")]
    nested = "def expected_gain(profile):\n    def inner():\n        return profile.purchase_value\n"
    assert list(_weight_reads("metrics", ast.parse(nested))) == []
    assert list(_weight_reads("sim", ast.parse(nested))) == [(3, "expected_gain.inner")]
    probes = {
        "class GainLedger:\n    def accrue(self, g, profile):\n        return profile.exposure_value\n": (
            3,
            "GainLedger.accrue",
        ),
        "def _feedback(profiles, g):\n    ve = profiles[g].purchase_value\n": (2, "_feedback"),
        "def f(p):\n    return getattr(p, 'gain_target')\n": (2, "f"),
        "weight = PROFILE.exposure_value\n": (1, ""),
    }
    for source, flagged in probes.items():
        assert list(_weight_reads("sim", ast.parse(source))) == [flagged], source
    # naming a weight as a keyword builds a profile and reads nothing
    assert list(_weight_reads("synth", ast.parse("p = ProviderProfile(exposure_value=1.0)\n"))) == []


def test_only_the_profile_and_its_arrays_read_the_weights():
    assert {path.stem for path in SOURCES} >= {"core", "metrics", "rankers", "sim"}
    reads = [
        f"{path.name}:{line} in {scope or 'module'}"
        for path in SOURCES
        for line, scope in _weight_reads(path.stem, ast.parse(path.read_text(), filename=str(path)))
    ]
    assert reads == [], "read the weights from core.provider_arrays: " + "; ".join(reads)
