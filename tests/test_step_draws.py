"""``sim.step_draws`` against the generator calls it stands for: every
step's user and purchase uniforms, and the generator's final state, bit for
bit. The block path follows numpy's PCG64 and Lemire internals, so a numpy
release that changed them fails here first."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equityrank import sim

# 2**31 + 1 rejects about half its draws; 1 draws nothing
USER_COUNTS = (1, 2, 7, 500, 2**31 + 1)
WARM_UPS = st.lists(st.sampled_from(["integers", "random", "normal", "uint32"]), max_size=4)


def warm_up(rng, calls):
    """Earlier draws of other kinds; an odd number of 32-bit ones leaves a kept half."""
    for call in calls:
        if call == "integers":
            rng.integers(10)
        elif call == "random":
            rng.random(3)
        elif call == "normal":
            rng.normal(size=2)
        else:
            rng.integers(2**32, dtype=np.uint64)  # one full 32-bit draw


def scalar_draws(rng, users, k, steps):
    draws = [(int(rng.integers(users)), rng.random(k).tolist()) for _ in range(steps)]
    return [user for user, _ in draws], [uniforms for _, uniforms in draws]


def block_draws(rng, users, k, steps, block):
    got_users, got_uniforms = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "DRAW_BLOCK", block)
        for who, uniforms in sim.step_draws(rng, users, k, steps):
            assert 0 < len(who) == len(uniforms) <= block
            got_users += who
            got_uniforms += uniforms
    return got_users, got_uniforms


def assert_same_draws(make_rng, warm, users, k, steps, block):
    want_rng, got_rng = make_rng(), make_rng()
    warm_up(want_rng, warm)
    warm_up(got_rng, warm)
    assert block_draws(got_rng, users, k, steps, block) == scalar_draws(want_rng, users, k, steps)
    # repr: Philox's state holds arrays
    assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    users=st.sampled_from(USER_COUNTS),
    k=st.integers(1, 10),
    steps=st.integers(0, 40),
    block=st.integers(1, 16),
    warm=WARM_UPS,
)
def test_pcg64_blocks_match_the_calls(seed, users, k, steps, block, warm):
    assert_same_draws(lambda: np.random.default_rng(seed), warm, users, k, steps, block)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    users=st.sampled_from(USER_COUNTS),
    k=st.integers(1, 10),
    steps=st.integers(0, 20),
    block=st.integers(1, 8),
    warm=WARM_UPS,
)
def test_other_bit_generators_take_the_calls(seed, users, k, steps, block, warm):
    assert_same_draws(lambda: np.random.Generator(np.random.Philox(seed)), warm, users, k, steps, block)


@pytest.mark.parametrize("kept", [0, 1])
def test_a_rejected_user_hands_the_rest_to_the_calls(monkeypatch, kept):
    """With 2**31 + 1 users the first rejection comes within a few steps; the
    block stops there, and the calls take that step and every later one."""
    taken, block = [], sim._pcg64_block

    def spy(bitgen, users, k, steps):
        who, uniforms = block(bitgen, users, k, steps)
        taken.append(len(who))
        return who, uniforms

    warm = ["uint32"] * kept
    monkeypatch.setattr(sim, "_pcg64_block", spy)
    for seed in range(20):
        taken.clear()
        assert_same_draws(lambda: np.random.default_rng(seed), warm, 2**31 + 1, 3, 45, 8)
        # one short block, then the calls alone
        assert len(taken) == 1 and taken[0] < 8


def test_blocks_are_drawn_as_they_are_consumed(monkeypatch):
    monkeypatch.setattr(sim, "DRAW_BLOCK", 4)
    rng = np.random.default_rng(5)
    blocks = sim.step_draws(rng, 500, 4, 10)
    before = rng.bit_generator.state
    first = next(blocks)
    assert rng.bit_generator.state != before
    assert first == scalar_draws(np.random.default_rng(5), 500, 4, 4)
    assert [len(who) for who, _ in blocks] == [4, 2]
