"""Slow, literal implementations that the library is checked against.

The rankers share no code with ``equityrank.rankers``: each reads the
relevance table, the profiles and the ledger directly. ``reference_unfairness``,
``reference_prefilter``, ``reference_relevance`` and ``reference_alignment``
are the forms the library's unfairness, candidate prefilter, relevance
generator and alignment diagnostics replaced: the m x m pairwise sum, a
full sort, the logistic of every (user, item) score, and a loop over
providers.
``_pick`` and ``reference_fill`` are the pick-by-pick slot-greedy fill that
the greedy-order kernels of ``PolicyPlan`` replaced: each pick rescores the
remaining slots and breaks ties explicitly. Both take a row's providers
beside its relevance. TopK, FairCo* and EquityRank are scored through
``PolicyPlan.score``; PoorK and MMF*, which the plan ranks by provider
heads, in their array form by ``_scores``.
``run_online_reference`` is the online loop by item id that the slot-indexed
``sim.run_online`` replaced, and ``run_offline_reference`` the offline loop
over the whole catalog, through the checked id-level functions and
``reference_fill``, that ranking from offline fields replaced.
``observed_offline_run`` runs ``sim.run_offline`` and shows what it
served, wherever its engine made the lists. ``tied_datasets`` draws the
small, tie-heavy datasets these are compared on. ``reference_table_text``
and ``reference_table_rows`` are the row-by-row ``csv`` module writer and
reader that ``synth``'s block-at-a-time table I/O replaced."""

import pytest

import csv
import io
import math
from collections import deque

import numpy as np
from hypothesis import strategies as st

from equityrank import (
    Catalog,
    Dataset,
    GainLedger,
    PolicyConfig,
    PositionModel,
    ProviderProfile,
    RankList,
    RelevanceTable,
    andcg,
    apply_expected_feedback,
    apply_feedback,
    online_step_rank,
    provider_arrays,
    rankers,
    sim,
)
from equityrank.metrics import cndcg_update, discounted_sum, format_float, unfairness
from equityrank.rankers import OfflineField, PolicyPlan


def _scores(plan: PolicyPlan, providers: np.ndarray, r: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """``plan``'s scores of slots whose providers are ``providers`` and relevance ``r``.

    PoorK and MMF* score (1 - alpha) times the min-max normalised relevance
    of the slots plus alpha at the worst-off provider's slots: the provider
    of a slot with the lowest gain-to-target ratio, ties (and every ratio
    infinite) to the lowest provider id. PoorK is alpha = 1.
    """
    if plan.kind not in ("PoorK", "MMFStar"):
        return plan.score(r, providers, gains)
    ratios = gains / plan.targets
    worst = min(set(providers.tolist()), key=lambda g: (ratios[g], g))
    lo, hi = r.min(), r.max()
    norm = (r - lo) / (hi - lo) if hi > lo else np.zeros_like(r)
    return (1.0 - plan.alpha) * norm + plan.alpha * (providers == worst)


def _pick(plan: PolicyPlan, provider: np.ndarray, rel: np.ndarray, avail: np.ndarray, gains: np.ndarray) -> int:
    """Take the best available slot of a row and return it.

    Best is the highest score under ``plan`` (``_scores``), ties broken by
    relevance descending, then slot ascending, which is id ascending. The
    pick is marked unavailable in ``avail``.
    """
    at = np.flatnonzero(avail)
    r = rel[at]
    scores = _scores(plan, provider[at], r, gains)
    tied = np.flatnonzero(scores == scores.max())
    if tied.size > 1:
        tied = tied[np.argsort(-r[tied], kind="stable")]
    best = int(at[tied[0]])
    avail[best] = False
    return best


def reference_fill(plan, provider, rel, gains, probs):
    """A slot-greedy list of ``plan`` over a row whose slots have providers
    ``provider`` and relevance ``rel``, through ``_pick``: the slots, top
    first. Before each position the remaining slots are scored and the best
    is taken; its expected gain p_k (v_e + r v_b) goes to a copy of
    ``gains``."""
    avail, gains, chosen = np.ones(rel.size, dtype=bool), gains.copy(), []
    for p_k in probs:
        pick = _pick(plan, provider, rel, avail, gains)
        g = provider[pick]
        gains[g] += p_k * (plan.ve[g] + rel[pick] * plan.vb[g])
        chosen.append(pick)
    return chosen


def _gradient(gains, y):
    """Fairness gradient of raw ``gains`` against targets ``y``, term by term."""
    m = len(y)
    gy = sum(gains[g] * y[g] for g in range(m))
    yy = sum(y[g] * y[g] for g in range(m))
    coef = 4.0 / (m * (m - 1))
    return [coef * (y[g] * gy - gains[g] * yy) for g in range(m)]


def reference_poork(candidates, user, rel, ledger, catalog, profiles, pm):
    """Queue-based PoorK: one relevance-ordered queue per provider.

    Each slot pops the head of the live provider with the smallest
    gain-to-target ratio (ties: lowest provider id), then adds the placed
    item's expected gain to a slot-local gain copy.
    """
    ve = [p.exposure_value for p in profiles]
    vb = [p.purchase_value for p in profiles]
    y = [p.gain_target for p in profiles]
    gains = [float(x) for x in ledger.raw_gains()]
    queues = {}
    for item in sorted((int(i) for i in candidates), key=lambda i: (-rel.get(user, i), i)):
        queues.setdefault(int(catalog.group_of[item]), deque()).append(item)
    chosen = []
    for k0 in range(pm.list_size):
        live = [g for g in sorted(queues) if queues[g]]
        g = min(live, key=lambda h: (gains[h] / y[h], h))
        item = queues[g].popleft()
        chosen.append(item)
        gains[g] += pm.probs[k0] * (ve[g] + rel.get(user, item) * vb[g])
    return tuple(chosen)


def reference_slotwise_equityrank(candidates, user, rel, ledger, catalog, profiles, alpha, pm):
    """Offline EquityRank: recompute the gradient before every slot.

    Each slot takes the remaining candidate with the largest
    r + alpha * b_g * (v_e + r * v_b) (ties: relevance descending, then id
    ascending) and adds its expected gain to a slot-local gain copy.
    """
    ve = [p.exposure_value for p in profiles]
    vb = [p.purchase_value for p in profiles]
    y = [p.gain_target for p in profiles]
    gains = [float(x) for x in ledger.raw_gains()]
    remaining = [int(i) for i in candidates]
    chosen = []
    for k0 in range(pm.list_size):
        b = _gradient(gains, y) if alpha != 0 else None

        def key(item):
            g = int(catalog.group_of[item])
            r = rel.get(user, item)
            score = r if alpha == 0 else r + alpha * b[g] * (ve[g] + r * vb[g])
            return (-score, -r, item)

        item = min(remaining, key=key)
        remaining.remove(item)
        chosen.append(item)
        g = int(catalog.group_of[item])
        gains[g] += pm.probs[k0] * (ve[g] + rel.get(user, item) * vb[g])
    return tuple(chosen)


def reference_vertical(users, rel, catalog, profiles, alpha, pm):
    """Literal slow implementation of vertical allocation used as an oracle."""
    m = catalog.provider_count
    ve = [p.exposure_value for p in profiles]
    vb = [p.purchase_value for p in profiles]
    y = [p.gain_target for p in profiles]
    gains = [0.0] * m
    assigned = {int(u): set() for u in users}
    lists = {int(u): [] for u in users}
    for k0 in range(pm.list_size):
        for u in users:
            u = int(u)
            gy = sum(gains[g] * y[g] for g in range(m))
            yy = sum(y[g] * y[g] for g in range(m))
            coef = 4.0 / (m * (m - 1))
            best = None
            for item in range(catalog.item_count):
                if item in assigned[u]:
                    continue
                g = int(catalog.group_of[item])
                r = rel.get(u, item)
                b = coef * (y[g] * gy - gains[g] * yy)
                score = r if alpha == 0 else r + alpha * b * (ve[g] + r * vb[g])
                key = (-score, -r, item)
                if best is None or key < best[0]:
                    best = (key, item)
            item = best[1]
            g = int(catalog.group_of[item])
            gains[g] += pm.probs[k0] * (ve[g] + rel.get(u, item) * vb[g])
            assigned[u].add(item)
            lists[u].append(item)
    return [tuple(lists[int(u)]) for u in users]


class ReferenceRelevance:
    """Dict-of-dicts relevance table, the storage ``RelevanceTable`` replaced.

    Built from the same (user, item, value) entries; a repeated pair keeps
    its last value and absent pairs read 0.
    """

    def __init__(self, user_count, entries):
        self.user_count = user_count
        self.rows = {}
        for user, item, value in entries:
            self.rows.setdefault(user, {})[item] = value

    def get(self, user, item):
        return self.rows.get(user, {}).get(item, 0.0)

    def relevance_of(self, user, items):
        return [self.get(user, item) for item in items]

    def dense_row(self, user, item_count):
        return [self.get(user, item) for item in range(item_count)]

    def user_values(self, user):
        return sorted(self.rows.get(user, {}).values(), reverse=True)

    def item_mean_relevance(self, item_count):
        totals = [0.0] * item_count
        for row in self.rows.values():
            for item, value in row.items():
                totals[item] += value
        return [total / self.user_count for total in totals]

    def entries(self):
        return [(u, i, self.rows[u][i]) for u in sorted(self.rows) for i in sorted(self.rows[u])]


def reference_unfairness(gains, targets):
    """Mean squared cross-provider disparity, built as m x m arrays."""
    gains = np.asarray(gains, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    m = gains.size
    cross = np.outer(gains, targets)
    disparity = cross - cross.T
    return float(np.sum(disparity * disparity) / (m * (m - 1)))


def reference_alignment(ledger, profiles):
    """``metrics.alignment_diagnostics`` as a loop over providers."""
    realized, declared, excluded = [], [], 0
    for g, profile in enumerate(profiles):
        if ledger.exposure_gain[g] <= 0 or profile.exposure_value <= 0:
            excluded += 1
            continue
        realized.append(ledger.purchase_gain[g] / ledger.exposure_gain[g])
        declared.append(profile.purchase_value / profile.exposure_value)
    if not realized:
        raise ValueError("every provider lacks exposure gain; diagnostics undefined")
    realized, declared = np.array(realized), np.array(declared)
    msd = float(np.mean((realized - declared) ** 2))
    if realized.size < 2 or np.ptp(realized) == 0 or np.ptp(declared) == 0:
        pearson = math.nan
    else:
        pearson = float(np.corrcoef(realized, declared)[0, 1])
    return msd, pearson, excluded


def reference_relevance(spec, rng):
    """``synth.generate_relevance`` as the dense formula: the logistic of the
    whole (users x items) score matrix, then each user's picks gathered."""
    users = rng.normal(size=(spec.n_users, spec.latent_dim))
    items = rng.normal(size=(spec.n_items, spec.latent_dim))
    values = 1.0 / (1.0 + np.exp(-(users @ items.T / math.sqrt(spec.latent_dim))))
    keep = max(1, round(spec.sparsity * spec.n_items))
    picked = np.array([rng.choice(spec.n_items, size=keep, replace=False) for _ in range(spec.n_users)])
    rows = np.repeat(np.arange(spec.n_users), keep)
    return RelevanceTable(spec.n_users, np.column_stack((rows, picked.ravel(), values[rows, picked.ravel()])))


def reference_prefilter(user, rel, item_count, size, noise_sd, rng):
    """Top ``size`` items by noisy relevance, from a full sort of every item."""
    noisy = rel.dense_row(user, item_count) + rng.normal(0.0, noise_sd, item_count)
    order = np.lexsort((np.arange(item_count), -noisy))
    return np.sort(order[:size]).astype(np.int64)


def run_online_reference(dataset, policy, alpha, seed, cfg):
    """``sim.run_online`` one request at a time by item id.

    Each step ranks with ``online_step_rank`` (estimates read from the
    counters, gains rebuilt from the ledger), maps the served items to their
    candidate slots with ``state.slots``, and serves them with
    ``apply_feedback``. Returns the result (wall time 0), the trace and the
    final state.
    """
    catalog, profiles, rel = dataset.catalog, dataset.profiles, dataset.relevance
    pm = PositionModel.logarithmic(cfg.list_size)
    policy_cfg = PolicyConfig(policy, alpha)
    probs = pm.probs.tolist()
    arrays = provider_arrays(profiles)
    state = sim.make_online_state(dataset, seed, cfg)
    ledger, candidate_sets = state.ledger, state.candidate_sets
    true_rel = np.array([rel.relevance_of(u, row) for u, row in enumerate(candidate_sets)])
    trace = sim.OnlineTrace()
    series = np.empty(cfg.total_steps) if cfg.record_ndcg else None
    ideals = sim._ideal_dcgs(rel, cfg.eval_cutoff, pm).tolist()  # Python floats, as run_online reads them
    cndcg = 0.0
    for t in range(1, cfg.total_steps + 1):
        user = int(state.rng.integers(rel.user_count))
        rl = online_step_rank(policy_cfg, candidate_sets[user], user, state, ledger, catalog, profiles, pm)
        served = true_rel[user].take(state.slots(user, rl.positions))
        apply_feedback(rl, user, rel, profiles, catalog, state, pm)
        ideal = ideals[user]
        ndcg_t = 1.0 if ideal == 0.0 else discounted_sum(served.tolist(), probs, cfg.eval_cutoff) / ideal
        cndcg = cndcg_update(cndcg, ndcg_t, cfg.gamma)
        if series is not None:
            series[t - 1] = ndcg_t
        if t % cfg.checkpoint_every == 0 or t == cfg.total_steps:
            trace.checkpoints.append((t, cndcg, unfairness(ledger.averaged_gains(), arrays[2])))
    trace.ndcg_series = series
    result = sim._result("online", policy, alpha, seed, cndcg, ledger, arrays, 0.0)
    return result, trace, state


def run_offline_reference(dataset, policy, alpha, seed, cfg):
    """``sim.run_offline`` with every user ranking the whole catalog.

    TopK and FairCo* rank the row of every item id with the plan; PoorK, MMF*
    and EquityRank fill each list with ``reference_fill``, and EquityRankV
    allocates level by level with ``_pick``, each pick scoring all of the
    user's unassigned items. Returns the result (wall time 0), the lists in
    visit order and the final ledger.
    """
    catalog, profiles, rel = sim._check_dataset(dataset, cfg)
    pm = PositionModel.logarithmic(cfg.list_size)
    user_order = np.random.default_rng(seed).permutation(rel.user_count).tolist()
    ledger = GainLedger.empty(catalog.provider_count)
    ids, groups = np.arange(catalog.item_count, dtype=np.int64), catalog.group_of
    if policy == "EquityRankV":
        plan = PolicyPlan(PolicyConfig("EquityRank", alpha), provider_arrays(profiles))
        rows = [rel.relevance_of(u, ids) for u in user_order]
        avail = [np.ones(ids.size, dtype=bool) for _ in user_order]
        slots = [[] for _ in user_order]
        for p_k in pm.probs:
            for row, free, chosen in zip(rows, avail, slots):
                item = _pick(plan, groups, row, free, ledger.raw_gains())
                g = int(catalog.group_of[item])
                ledger.accrue(g, p_k, p_k * row[item], profiles[g].exposure_value, profiles[g].purchase_value)
                chosen.append(item)
        ledger.step_count += len(user_order)
        lists = [RankList(tuple(chosen), u) for u, chosen in zip(user_order, slots)]
    else:
        plan = PolicyPlan(PolicyConfig(policy, alpha), provider_arrays(profiles))
        lists = []
        greedy = policy in ("PoorK", "MMFStar", "EquityRank")
        for user in user_order:
            row, gains = rel.relevance_of(user, ids), ledger.raw_gains()
            if greedy:
                slots = reference_fill(plan, groups, row, gains, pm.probs)
            else:
                slots = plan.rank(row, groups, gains, pm.probs)
            rl = RankList(tuple(slots), user)
            apply_expected_feedback(rl, user, rel, profiles, catalog, ledger, pm)
            lists.append(rl)
    effectiveness = andcg(lists, rel, cfg.eval_cutoff, pm)
    result = sim._result("offline", policy, alpha, seed, effectiveness, ledger, provider_arrays(profiles), 0.0)
    return result, lists, ledger


def observed_offline_run(dataset, policy, alpha, seed, cfg):
    """``sim.run_offline``'s result, served lists and final ledger.

    The lists are seen where the run makes them: a ledger-blind run's are
    the item ids at what ``OfflineField.heads`` returns; FairCo*'s,
    EquityRank's and EquityRankV's are ``_lockstep``'s picks, positions in
    each user's segment read as the field's item ids; PoorK's and MMF*'s
    are what each ``PolicyPlan.rank`` call returns, read as the item ids of
    the user's segment of the field that the run took just before it. The
    ledger is the one the result's diagnostics are computed from.
    """
    rank, segment, heads = PolicyPlan.rank, OfflineField.segment, OfflineField.heads
    lockstep, diagnostics = rankers._lockstep, sim._alignment
    segments, ranked, picked, whole, ledgers = [], [], [], [], []

    def record_heads(field, users, k):
        at = heads(field, users, k)
        lists = zip(users.tolist(), field.items[at].tolist(), strict=True)
        whole.extend(RankList(tuple(items), u) for u, items in lists)
        return at

    def record_segment(field, user):
        segments.append((field, user))
        return segment(field, user)

    def record_rank(plan, *args, **kwargs):
        at = rank(plan, *args, **kwargs)
        field, user = segments.pop()
        ranked.append(RankList(tuple(field.items[segment(field, user)][at].tolist()), user))
        return at

    def record_lockstep(plan, field, orders, *args):
        picks, failed = lockstep(plan, field, orders, *args)
        (order,), (at,) = orders.tolist(), picks
        items = field.items[field.indptr[order][:, None] + at].tolist()
        picked.extend(RankList(tuple(row), u) for u, row in zip(order, items, strict=True))
        return picks, failed

    def capture_ledger(ledger, ve, vb):
        ledgers.append(ledger)
        return diagnostics(ledger, ve, vb)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OfflineField, "segment", record_segment)
        mp.setattr(OfflineField, "heads", record_heads)
        mp.setattr(PolicyPlan, "rank", record_rank)
        mp.setattr(rankers, "_lockstep", record_lockstep)
        mp.setattr(sim, "_alignment", capture_ledger)
        result = sim.run_offline(dataset, policy, alpha, seed, cfg)
    (ledger,) = ledgers
    return result, whole or picked or ranked, ledger


@st.composite
def tied_datasets(draw):
    """Small datasets full of ties, with the list size they are ranked for.

    Relevance takes a few quantised levels, 0.0 among them, so many items of
    a provider share a value and some zeros are stored explicitly. Some
    providers own only 1 to K + 1 items; others own enough for a narrowed
    class. Profiles are sometimes all equal, so providers tie on gains too.
    Users store different numbers of items, so their offline segments are
    ragged.
    """
    k = draw(st.integers(1, 6))
    m = draw(st.integers(2, 5))
    sizes = [draw(st.integers(1, k + 1) | st.integers(k + 2, 3 * k + 4)) for _ in range(m)]
    sizes[-1] += max(0, k - sum(sizes))
    groups = draw(st.permutations(np.repeat(np.arange(m), sizes).tolist()))
    n_users = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sparsity = draw(st.sampled_from([0.3, 1.0]))
    levels = draw(st.sampled_from([1, 2, 4]))
    entries = [
        (u, i, int(rng.integers(0, levels + 1)) / levels)
        for u in range(n_users)
        for i in range(len(groups))
        if rng.random() < sparsity
    ]
    if draw(st.booleans()):
        profiles = [ProviderProfile(2.0, 5.0, 1.5)] * m
    else:
        profiles = [ProviderProfile(*(float(x) for x in rng.uniform(0.2, 3.0, 3))) for _ in range(m)]
    dataset = Dataset(Catalog.from_assignments(groups, m), tuple(profiles), RelevanceTable(n_users, entries))
    return dataset, k


def reference_table_text(header, rows) -> str:
    """A table's text as ``csv.writer`` writes it row by row, each float
    formatted by ``format_float``. Its line terminator is "\\r\\n", so that it
    quotes a field holding a carriage return as well as one holding a
    newline; each row then ends in "\\n" alone."""
    out = io.StringIO()
    writer, lines = csv.writer(out, lineterminator="\r\n"), []
    for row in [header, *rows]:
        writer.writerow([format_float(value) if isinstance(value, float) else value for value in row])
        lines.append(out.getvalue()[:-2] + "\n")
        out.seek(0)
        out.truncate()
    return "".join(lines)


def reference_table_rows(path) -> list[tuple[int, list[str]]]:
    """Every nonblank record of a CSV file after its header, by ``csv.reader``, with its 1-based record number."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [(n, row) for n, row in enumerate(csv.reader(fh), start=1) if row and n > 1]
