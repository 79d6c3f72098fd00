"""Property test of the array form of ``alignment_diagnostics`` against the
loop over providers it replaced, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equityrank import GainLedger, ProviderProfile, alignment_diagnostics
from oracles import reference_alignment

# zero gains and weights exclude a provider; gains up to 1e300 overflow the ratios to inf
GAINS = st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(0.0, 10.0))
WEIGHTS = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(1e-300, 1e300))


@st.composite
def ledgers(draw):
    m = draw(st.integers(1, 12))
    profiles = [ProviderProfile(draw(WEIGHTS), draw(WEIGHTS), 1.0) for _ in range(m)]
    ledger = GainLedger.empty(m)
    ledger.exposure_gain[:] = draw(st.lists(GAINS, min_size=m, max_size=m))
    ledger.purchase_gain[:] = draw(st.lists(GAINS, min_size=m, max_size=m))
    ledger.step_count = 1
    return ledger, profiles


def outcome(diagnose, ledger, profiles):
    try:
        with np.errstate(all="ignore"):
            msd, pearson, excluded = diagnose(ledger, profiles)
    except ValueError as exc:
        return str(exc)
    return repr(msd), repr(pearson), excluded


@settings(max_examples=400, deadline=None)
@given(ledgers())
def test_matches_the_loop_over_providers(drawn):
    ledger, profiles = drawn
    assert outcome(alignment_diagnostics, ledger, profiles) == outcome(reference_alignment, ledger, profiles)


def test_every_provider_excluded_raises_as_the_loop_does():
    profiles = [ProviderProfile(0.0, 1.0, 1.0), ProviderProfile(1.0, 1.0, 1.0)]
    ledger = GainLedger.empty(2)
    ledger.exposure_gain[:] = [5.0, 0.0]  # provider 0 has no exposure weight, provider 1 no gain
    with pytest.raises(ValueError, match="every provider lacks exposure gain"):
        alignment_diagnostics(ledger, profiles)
    assert outcome(reference_alignment, ledger, profiles) == "every provider lacks exposure gain; diagnostics undefined"
