"""The vectorised counter hash against its scalar definition.

``counter_uniforms`` must be ``counter_uniform`` key by key, *bit for
bit* — fault decisions, latency draws and churn timelines all replay
off the scalar hash, and ``LatencyModel.hop_delay_ms`` now draws a
whole walk segment's uniforms through the array kernel.  Likewise
``counter_tail(counter_prefix(...), last)`` must be ``counter_uniform``
of the whole key: a probe's two fault coins and its two latency legs
share the hash of everything but their last key part.  The scalar
forms are the reference here; nothing in this file restates the hash.

CI runs this file twice (the ``sim`` job) with derandomized hypothesis.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.faults import (
    MESSAGE_KINDS,
    CrashWindow,
    FaultDecision,
    FaultPlan,
    LatencySpike,
    counter_prefix,
    counter_tail,
    counter_uniform,
    counter_uniforms,
    kind_code,
)
from repro.network.topology import Topology
from repro.sim.latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
)

pytestmark = pytest.mark.chaos

#: The hop leg's hash-domain separator (``sim/latency.py``).
HOP_LEG = 2

# Seeds and message counters are Python ints of any size or sign; the
# hash reduces them modulo 2**64, so cover both halves of the range.
any_int = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=2**63, max_value=2**64 - 1),
    st.integers(min_value=-(2**63), max_value=2**65),
    st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64]),
)


@pytest.fixture(autouse=True)
def _no_numpy_warning_escapes():
    """uint64 wrap-around is the point; a RuntimeWarning about it would
    mean a numpy *scalar* slipped into the array kernel."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class TestCounterUniforms:
    @given(seed=any_int, message=any_int, leg=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    @pytest.mark.parametrize("hops", [1, 2, 134, 10_000])
    def test_equals_the_scalar_hash_bit_for_bit(
        self, hops, seed, message, leg
    ):
        vector = counter_uniforms(seed, message, np.arange(hops), leg)
        assert vector.dtype == np.float64 and vector.shape == (hops,)
        assert vector.tolist() == [
            counter_uniform(seed, message, index, leg)
            for index in range(hops)
        ]

    @given(seed=any_int, parts=st.lists(any_int, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_all_int_keys_give_the_scalar_draw(self, seed, parts):
        assert counter_uniforms(seed, *parts).tolist() == [
            counter_uniform(seed, *parts)
        ]

    @given(seed=any_int, message=any_int)
    @settings(max_examples=30, deadline=None)
    def test_array_part_in_any_position_and_dtype(self, seed, message):
        keys = np.array([0, 1, 2**31, 2**62], dtype=np.int64)
        big = np.array([2**63, 2**64 - 1], dtype=np.uint64)
        assert counter_uniforms(seed, keys, message).tolist() == [
            counter_uniform(seed, int(key), message) for key in keys
        ]
        assert counter_uniforms(seed, message, big).tolist() == [
            counter_uniform(seed, message, int(key)) for key in big
        ]
        negative = np.array([-1, -(2**63)], dtype=np.int64)
        assert counter_uniforms(seed, negative).tolist() == [
            counter_uniform(seed, int(key)) for key in negative
        ]

    def test_arrays_broadcast_against_each_other(self):
        peers = np.arange(3).reshape(3, 1)
        steps = np.arange(4).reshape(1, 4)
        grid = counter_uniforms(9, steps, peers, 1)
        assert grid.shape == (3, 4)
        for peer in range(3):
            for step in range(4):
                assert grid[peer, step] == counter_uniform(9, step, peer, 1)


def _scalar_hop_delay_ms(model, message, hops):
    """``LatencyModel.hop_delay_ms`` as it was: hash and add hop by hop."""
    if hops <= 0 or model.hop.is_null:
        return 0.0
    total = 0.0
    for index in range(hops):
        total += model.hop.sample_ms(
            counter_uniform(model.seed, message, index, HOP_LEG)
        )
    return total


HOP_DISTRIBUTIONS = {
    "constant": ConstantLatency(0.1),  # 0.1 summed is not 0.1 * hops
    "uniform": UniformLatency(0.5, 7.25),
    "exponential": ExponentialLatency(3.0),
    "null": ConstantLatency(0.0),
}


class TestHopDelay:
    @given(seed=any_int, message=st.integers(0, 2**40))
    @settings(max_examples=25, deadline=None)
    @pytest.mark.parametrize("hops", [-3, 0, 1, 2, 134, 2_000])
    @pytest.mark.parametrize("name", sorted(HOP_DISTRIBUTIONS))
    def test_equals_the_scalar_loop_bit_for_bit(
        self, name, hops, seed, message
    ):
        model = LatencyModel(seed=seed, hop=HOP_DISTRIBUTIONS[name])
        assert model.hop_delay_ms(message, hops) == _scalar_hop_delay_ms(
            model, message, hops
        )

    def test_null_hop_model_and_empty_segment_cost_nothing(self):
        armed = LatencyModel(seed=1, hop=ExponentialLatency(3.0))
        assert armed.hop_delay_ms(5, 0) == 0.0
        assert armed.hop_delay_ms(5, -1) == 0.0
        null_hop = LatencyModel(seed=1, request=ConstantLatency(2.0))
        assert null_hop.hop_delay_ms(5, 134) == 0.0


class TestSharedPrefix:
    @given(seed=any_int, parts=st.lists(any_int, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_tail_of_prefix_is_the_whole_hash(self, seed, parts):
        assert counter_tail(
            counter_prefix(seed, *parts[:-1]), parts[-1]
        ) == counter_uniform(seed, *parts)


def _two_coin_decision(state, peer, kind, step):
    """``FaultState._decide`` as it was: one whole hash per coin."""
    plan = state.plan
    if state.is_crashed(peer, step):
        return FaultDecision(step=step, crashed=True)
    code = kind_code(kind)
    loss_rate = plan.loss_rate(kind)
    if loss_rate > 0.0 and (
        counter_uniform(plan.seed, step, peer, code, 0) < loss_rate
    ):
        return FaultDecision(step=step, lost=True)
    spike = plan.latency_spike
    if spike is not None and (
        counter_uniform(plan.seed, step, peer, code, 1) < spike.rate
    ):
        timeout = plan.probe_timeout_ms
        if timeout is not None and spike.extra_ms > timeout:
            return FaultDecision(step=step, timed_out=True)
        return FaultDecision(step=step, extra_latency_ms=spike.extra_ms)
    return FaultDecision(step=step)


RING = Topology(8, [(peer, (peer + 1) % 8) for peer in range(8)])

rates = st.sampled_from([0.0, 0.05, 0.5, 0.95])


class TestDrawsThatShareAPrefix:
    @given(
        seed=any_int,
        step=st.integers(0, 2**40),
        loss=rates,
        spike=st.one_of(st.none(), rates),
        timeout=st.sampled_from([None, 250.0, 500.0]),
    )
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("kind", MESSAGE_KINDS)
    def test_decide_equals_one_whole_hash_per_coin(
        self, kind, seed, step, loss, spike, timeout
    ):
        plan = FaultPlan(
            seed=seed,
            crashes=(CrashWindow(peer_id=3, start=0, stop=2**39),),
            reply_loss=loss,
            latency_spike=(
                None if spike is None else LatencySpike(spike, 400.0)
            ),
            probe_timeout_ms=timeout,
        )
        state = plan.bind(RING)
        for peer in range(RING.num_peers):
            assert state._decide(
                peer, kind_code(kind), step
            ) == _two_coin_decision(state, peer, kind, step)

    @given(
        seed=any_int,
        message=st.integers(0, 2**40),
        peer=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("kind", MESSAGE_KINDS)
    def test_probe_delay_equals_one_whole_hash_per_leg(
        self, kind, seed, message, peer
    ):
        model = LatencyModel(
            seed=seed,
            request=ExponentialLatency(20.0),
            reply=UniformLatency(0.5, 7.25),
        )
        code = kind_code(kind)
        assert model.probe_delay_ms(message, peer, kind) == (
            model.request.sample_ms(
                counter_uniform(seed, message, peer, code, 0)
            )
            + model.reply.sample_ms(
                counter_uniform(seed, message, peer, code, 1)
            )
        )
