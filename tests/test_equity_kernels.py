"""EquityRank's score is written in two kernels, one per shape (README,
"Exactness rules"). ``PolicyPlan._equity`` takes the fairness gradient b at
every provider, then reads it at the entries: the lockstep's (R x L) rows,
and ``PolicyPlan.score`` at R = 1. ``PolicyPlan.row_ranker``'s step gathers
its row's operands first and takes b at the row's providers alone. The scan
below keeps the gradient's constants, ``_target_sq`` and ``_scale``, read in
those two places only, so a third copy cannot come back unnoticed. The
property ranks rows that hold a few of up to 300 providers, with gains up to
1e308 at providers outside the row, by both kernels."""

import ast
import pathlib
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import equityrank
from equityrank import PolicyConfig, PositionModel, ProviderProfile, provider_arrays
from equityrank.rankers import PolicyPlan

SOURCES = sorted(pathlib.Path(equityrank.__file__).parent.glob("*.py"))
KERNEL_CONSTANTS = {"_target_sq", "_scale"}
KERNELS = {("rankers", "PolicyPlan._equity"), ("rankers", "PolicyPlan.row_ranker")}
TIES = np.array([0.0, 0.25, 0.5, 1.0])


def _kernel_of(module, scope):
    """The kernel in ``KERNELS`` whose body holds ``scope`` of ``module``, or None."""
    return next(((m, s) for m, s in KERNELS if module == m and (scope == s or scope.startswith(s + "."))), None)


def _constant_reads(tree, scope=""):
    """(line, scope) of every read of a kernel constant, as an attribute or a string
    (``getattr``); a scope is the dotted name of the classes and functions that enclose it."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Attribute) and node.attr in KERNEL_CONSTANTS and isinstance(node.ctx, ast.Load):
            yield node.lineno, scope
        elif isinstance(node, ast.Constant) and node.value in KERNEL_CONSTANTS:
            yield node.lineno, scope
        yield from _constant_reads(node, inner)


def _stray_reads(module, tree):
    return [(line, scope) for line, scope in _constant_reads(tree) if _kernel_of(module, scope) is None]


def test_the_kernel_scan_flags_a_read_placed_elsewhere():
    allowed = (
        "class PolicyPlan:\n"
        "    def __init__(self, y):\n        self._target_sq, self._scale = 1.0, 2.0\n"
        "    def _equity(self, b):\n        return b * self._scale\n"
        "    def row_ranker(self):\n        def step(b):\n            return b * self._target_sq\n        return step\n"
    )
    assert _stray_reads("rankers", ast.parse(allowed)) == []
    assert [scope for _, scope in _stray_reads("sim", ast.parse(allowed))] == ["PolicyPlan._equity", "PolicyPlan.row_ranker.step"]
    probes = {
        "class PolicyPlan:\n    def score(self, b):\n        return b * self._scale\n": (3, "PolicyPlan.score"),
        "def _equity_row(plan, b):\n    return b * plan._target_sq\n": (2, "_equity_row"),
        "def batch(plan):\n    return getattr(plan, '_scale')\n": (2, "batch"),
        "class PolicyPlan:\n    def _equity_rows(self):\n        return self._target_sq\n": (3, "PolicyPlan._equity_rows"),
    }
    for source, flagged in probes.items():
        assert _stray_reads("rankers", ast.parse(source)) == [flagged], source


def test_the_gradient_constants_are_read_in_the_two_kernels_alone():
    reads = {
        (path.stem, line, scope)
        for path in SOURCES
        for line, scope in _constant_reads(ast.parse(path.read_text(), filename=str(path)))
    }
    stray = [f"{module}.py:{line} in {scope or 'module'}" for module, line, scope in sorted(reads) if _kernel_of(module, scope) is None]
    assert stray == [], "score EquityRank through PolicyPlan._equity or row_ranker's step: " + "; ".join(stray)
    assert {_kernel_of(module, scope) for module, _, scope in reads} == KERNELS


def _gathered(plan, rel, provider, gains):
    """The gather-first kernel's scores, written out: b at the row's providers alone."""
    y = plan.targets
    b = y[provider] * gains.dot(y)
    b -= gains[provider] * float(y @ y)
    b *= 4.0 / (y.size * (y.size - 1))
    b *= plan.alpha
    b *= rel * plan.vb[provider] + plan.ve[provider]
    return b + rel


def _step_kernel(rank_row):
    """The step ranker's gather-first kernel, ``negated(user, rel, gains)``: minus the scores,
    read from ``rank_row``'s closure, so the test sees the step's own bits."""
    return dict(zip(rank_row.__code__.co_freevars, (cell.cell_contents for cell in rank_row.__closure__)))["negated"]


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def wide_rows(draw):
    m, k = draw(st.integers(2, 300)), draw(st.integers(1, 5))
    width, users, steps = draw(st.integers(k, 25)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # the rows hold a few of the m providers; every other provider is outside them all
    held = rng.choice(m, draw(st.integers(1, min(m - 1, 4))), replace=False)
    providers = rng.choice(held, (users, width))
    outside = np.setdiff1d(np.arange(m), held)
    tie = rng.random((users, width)) < draw(st.sampled_from([0.0, 0.5]))
    rel = np.where(tie, rng.choice(TIES, (users, width)), rng.random((users, width)))
    # targets down to 1e-8, so that G.y stays finite beside some huge outside gains
    weights, targets = rng.uniform(0.0, 5.0, (m, 2)), 10.0 ** rng.uniform(-8.0, 1.0, m)
    profiles = [ProviderProfile(ve, vb, y) for (ve, vb), y in zip(weights, targets)]
    visits = []
    for _ in range(steps):
        gains = draw(st.sampled_from([0.0, 1.0, 1e4, 1e150])) * rng.random(m)
        huge = outside[rng.random(outside.size) < draw(st.sampled_from([0.0, 0.2, 1.0]))]
        gains[huge] = 10.0 ** rng.uniform(300.0, np.log10(np.finfo(float).max), huge.size)
        visits.append((draw(st.integers(0, users - 1)), gains))
    policy = PolicyConfig("EquityRank", draw(st.sampled_from([1e-4, 0.5, 1.0, 1e300])))
    return policy, profiles, providers, rel, visits, PositionModel.logarithmic(k).probs


@settings(max_examples=200, deadline=None)
@given(wide_rows())
def test_both_kernels_rank_rows_of_a_few_among_many_providers_alike(case):
    policy, profiles, providers, rel, visits, probs = case
    plan = PolicyPlan(policy, provider_arrays(profiles))
    rank_row, rows = plan.row_ranker(providers, probs.tolist()), list(rel)
    step = _step_kernel(rank_row)
    for user, gains in visits:
        with warnings.catch_warnings():
            # b may overflow at providers outside the row; score warns of none of it
            warnings.simplefilter("error", RuntimeWarning)
            scores = plan.score(rel[user], providers[user], gains)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _gathered(plan, rel[user], providers[user], gains)
            stepped = np.negative(step(user, rows[user], gains))
            ranked = _outcome(lambda: plan.rank(rel[user].copy(), providers[user], gains.copy(), probs))
            assert _outcome(lambda: rank_row(user, rows[user], gains)) == ranked
        if np.isfinite(want).all():
            assert scores.tobytes() == stepped.tobytes() == want.tobytes()
            assert isinstance(ranked, list)
        else:
            assert np.array_equal(scores, want, equal_nan=True) and np.array_equal(stepped, want, equal_nan=True)
            assert ranked == "ValueError: scores must be finite"
