"""equityrank: fairness-aware ranking simulation and experiment harness.

The library models a ranking platform whose providers declare how much they
value exposure versus purchases. It ships the equity-oriented unfairness
metric (gains proportional to declared targets), its analytic gradient, the
EquityRank gradient ranker with a vertical-allocation variant, classic
baselines (TopK, PoorK, proportional-controller and blended-greedy
re-rankers), and deterministic offline/online simulation loops with a CLI
for sweeps, reports, and trade-off plots.
"""

from .core import (
    Catalog,
    PositionModel,
    ProviderProfile,
    RankList,
    RelevanceTable,
    provider_arrays,
)
from .metrics import (
    AlignmentDiagnostics,
    GainLedger,
    RunResult,
    alignment_diagnostics,
    andcg,
    cndcg_update,
    dcg,
    expected_gain,
    exposure_unfairness,
    fairness_gradient,
    ideal_dcg,
    ndcg,
    tradeoff_envelope,
    unfairness,
)
from .rankers import (
    POLICY_KINDS,
    PolicyConfig,
    ScoreVector,
    allocate_vertical,
    equityrank_scores,
    offline_rank_user,
    online_step_rank,
    rank_by_scores,
    rank_fairco_star,
    rank_mmf_star,
    rank_poork,
)
from .sim import (
    OnlineState,
    OnlineTrace,
    SimConfig,
    apply_expected_feedback,
    apply_feedback,
    estimate_relevance,
    make_online_state,
    prefilter_candidates,
    run_offline,
    run_offline_batch,
    run_online,
    run_online_batch,
)
from .synth import (
    Dataset,
    DatasetError,
    GeneratorSpec,
    ScenarioSpec,
    assign_groups,
    generate_dataset,
    generate_relevance,
    load_dataset,
    sample_profiles,
    save_dataset,
)

__version__ = "0.1.0"
