"""The row-wise reference for the columnar COUNT/SUM/AVG sample.

``src/`` holds a sample as columns
(:class:`repro.network.protocol.AggregateSample`) and estimates with
array arithmetic.  This module keeps the form that code replaced — one
object per visited peer, one ``getattr(row, field) / row.probability``
per row, then the same numpy reduction — so tests can hand-build
samples a row at a time (:func:`sample_of`) and pin the array
arithmetic to the object arithmetic with ``==``.  It also keeps the
loop form of the cross-validation (:func:`cross_validate`: one pair of
``take`` copies and two estimator calls per round) that the one-gather
array program in ``repro.core.crossval`` is compared against bit for
bit.

The values engines get the same treatment.  Their sample is a
:class:`repro.network.protocol.ValueSample` (every shipped value in one
flat array); the forms it replaced are kept below — one
:class:`MedianObservation` per local median with the median engine's
weighted quantile and halving loop, one :class:`PeerValueSample` per
visited peer with the histogram's per-peer bucket loop, Chao1 over the
concatenated samples, and the statistics engine's collection as one
``visit_oracle.oracle_visit_values`` call per walked peer (the former
scalar ``visit_values``).
"""

import math
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro._util import ensure_rng, weighted_median
from repro.core.median import weighted_rank_fraction
from repro.errors import PeerUnavailableError, SamplingError
from repro.network.protocol import AggregateSample, WalkerProbe
from repro.query.model import AggregateOp, AggregationQuery

from . import visit_oracle


class Row(NamedTuple):
    """One visited peer as the sink sees it: the reply's payload plus
    the stationary probability reconstructed from its degree."""

    aggregate_value: float
    probability: float
    source: int = 0
    matching_count: float = 0.0
    column_total: float = 0.0
    local_tuples: int = 0
    contribution_variance: float = 0.0
    processed_tuples: int = 0
    degree: int = 0


def sample_of(rows: Sequence[Row], sink: int = 0) -> AggregateSample:
    """The columnar sample holding ``rows``, built column by column."""
    columns = {
        name: [getattr(row, name) for row in rows]
        for name in Row._fields
        if name != "probability"
    }
    sample = AggregateSample.from_columns(sink, len(rows), **columns)
    return sample.with_probability([row.probability for row in rows])


def ratios(rows: Sequence[Row], field: str = "aggregate_value") -> np.ndarray:
    return np.asarray(
        [getattr(row, field) / row.probability for row in rows], dtype=float
    )


def weights(rows: Sequence[Row]) -> np.ndarray:
    return np.asarray([1.0 / row.probability for row in rows], dtype=float)


def horvitz_thompson(rows, field="aggregate_value"):
    return float(ratios(rows, field).mean())


def ht_variance(rows):
    values = ratios(rows)
    return float(values.var(ddof=1) / values.size)


def hajek_estimate(rows, num_peers, field="aggregate_value"):
    return float(
        num_peers * ratios(rows, field).sum() / weights(rows).sum()
    )


def hajek_variance(rows, num_peers):
    values, inverse = ratios(rows), weights(rows)
    leave_one_out = (
        num_peers * (values.sum() - values) / (inverse.sum() - inverse)
    )
    m = values.size
    return float(
        (m - 1) / m * np.sum((leave_one_out - leave_one_out.mean()) ** 2)
    )


def cross_validate(sample, rounds, seed, estimator):
    """The halving loop ``repro.core.crossval.cross_validate`` replaced
    (moved here verbatim): per round one ``rng.permutation``, two
    ``AggregateSample.take`` copies and ``estimator`` — any callable
    over a sample — once per half.  Returns ``(mean_squared_error,
    errors, half_size)``."""
    if rounds <= 0:
        raise SamplingError("rounds must be positive")
    m = len(sample)
    if m < 4:
        raise SamplingError(
            f"cross-validation needs at least 4 phase-I peers, got {m}"
        )
    rng = ensure_rng(seed)
    half = m // 2
    errors = []
    for _ in range(rounds):
        order = rng.permutation(m)
        first = sample.take(order[:half])
        second = sample.take(order[half: 2 * half])
        errors.append(abs(estimator(first) - estimator(second)))
    return float(np.mean(np.square(errors))), errors, half


# ---------------------------------------------------------------------------
# Values replies: local medians, per-peer value samples
# ---------------------------------------------------------------------------


class MedianObservation(NamedTuple):
    """A peer's local median with its stationary weight."""

    peer_id: int
    median: float
    weight: float  # 1 / prob(s)


def median_observations(replies, probabilities) -> List[MedianObservation]:
    """One observation per ``TupleReply`` that shipped a local median,
    weighted by ``1 / probabilities[source]``."""
    return [
        MedianObservation(
            reply.source,
            reply.values[0],
            1.0 / float(probabilities[reply.source]),
        )
        for reply in replies
        if reply.values
    ]


def weighted_median_of(observations, fraction):
    if not observations:
        raise SamplingError("no medians collected; empty selection?")
    values = np.asarray([o.median for o in observations])
    weights = np.asarray([o.weight for o in observations])
    return weighted_median(values, weights, fraction=fraction)


def rank_error(observations, fraction, rounds, rng):
    """The median engine's halving loop over observation lists: per
    round one ``rng.permutation``, the weighted quantile of one half
    and its weighted rank in the other.  Returns the RMS displacement."""
    m = len(observations)
    if m < 4:
        raise SamplingError(
            f"median cross-validation needs >= 4 medians, got {m}"
        )
    squared = []
    indices = np.arange(m)
    for _ in range(rounds):
        order = rng.permutation(indices)
        half = m // 2
        group1 = [observations[i] for i in order[:half]]
        group2 = [observations[i] for i in order[half: 2 * half]]
        med_g1 = weighted_median_of(group1, fraction)
        values2 = np.asarray([o.median for o in group2])
        weights2 = np.asarray([o.weight for o in group2])
        displacement = (
            weighted_rank_fraction(values2, weights2, med_g1) - fraction
        )
        squared.append(displacement**2)
    return float(math.sqrt(np.mean(squared)))


class PeerValueSample(NamedTuple):
    """One visited peer's raw value sample."""

    peer_id: int
    values: np.ndarray
    probability: float
    local_tuples: int
    processed_tuples: int

    def bucket_aggregate(self, edges):
        """Scaled per-bucket counts ``y_b(s)`` for this peer."""
        if self.processed_tuples == 0:
            return np.zeros(edges.size - 1)
        counts, _ = np.histogram(self.values, bins=edges)
        scale = self.local_tuples / self.processed_tuples
        return counts.astype(float) * scale


def peer_value_samples(replies, probabilities) -> List[PeerValueSample]:
    return [
        PeerValueSample(
            reply.source,
            np.asarray(reply.values, dtype=float),
            float(probabilities[reply.source]),
            reply.local_tuples,
            reply.processed_tuples,
        )
        for reply in replies
    ]


def collect_value_samples(engine, sink, column, predicate, count, ledger):
    """The statistics engine's collection, one scalar visit per walked
    peer (a lost reply shrinks the list); returns ``(samples, hops)``."""
    query = AggregationQuery(
        agg=AggregateOp.MEDIAN, column=column, predicate=predicate
    )
    walk = engine._walker.sample_peers(sink, count)
    probe = WalkerProbe(
        source=sink, destination=sink, sink=sink,
        query_text=f"HISTOGRAM({column})",
        tuples_per_peer=engine.config.tuples_per_peer,
    )
    engine._simulator.walk_hops(
        walk.hops, ledger, message_bytes=probe.size_bytes()
    )
    replies = []
    for peer in walk.peers:
        try:
            replies.append(
                visit_oracle.oracle_visit_values(
                    engine._simulator, int(peer), query, sink=sink,
                    ledger=ledger,
                    tuples_per_peer=engine.config.tuples_per_peer,
                    ship="sample", seed=engine._visit_rng,
                )
            )
        except PeerUnavailableError:
            continue
    probabilities = engine._walker.stationary_probabilities()
    return peer_value_samples(replies, probabilities), walk.hops


def histogram_estimate(samples, edges):
    """Hájek per-bucket mean over the peer samples, accumulated one
    peer at a time."""
    if not samples:
        raise SamplingError("no samples collected")
    weighted = np.zeros(edges.size - 1)
    weight_total = 0.0
    for sample in samples:
        weight = 1.0 / sample.probability
        weighted += sample.bucket_aggregate(edges) * weight
        weight_total += weight
    return weighted / weight_total


def distinct(samples) -> Tuple[int, float, int, int]:
    """``(observed, chao1, singletons, doubletons)`` of the values the
    samples shipped."""
    gathered = [s.values for s in samples if s.values.size]
    values = np.concatenate(gathered) if gathered else np.zeros(0)
    _, counts = np.unique(values, return_counts=True)
    observed = int(counts.size)
    singletons = int(np.count_nonzero(counts == 1))
    doubletons = int(np.count_nonzero(counts == 2))
    if doubletons > 0:
        chao1 = observed + singletons**2 / (2.0 * doubletons)
    elif singletons > 0:
        chao1 = observed + singletons * (singletons - 1) / 2.0
    else:
        chao1 = float(observed)
    return observed, float(chao1), singletons, doubletons
