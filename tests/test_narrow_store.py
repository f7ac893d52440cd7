"""A store at its domain's width answers as the same rows as ``int64``.

Generated columns take the narrowest signed width their domain allows
(:func:`repro.data.zipf.domain_dtype`: ``int8`` up to 127 values,
``int16`` from 128), and every consumer that does arithmetic on raw
column values widens first.  These properties are the net under that
audit: on domains at each width's edge, and on a hand-built store of
negative values (where a difference of two ``int8`` values wraps),
every exact evaluator and every served query kind — clean and through
the resilient collector — must answer bit for bit as the same rows
stored as ``int64``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.two_phase import TwoPhaseConfig
from repro.data.flat import DatabaseTable, FlatDataset
from repro.data.generator import (
    DatasetConfig,
    GeneratedDataset,
    generate_dataset,
)
from repro.data.zipf import domain_dtype
from repro.errors import QueryError
from repro.network.faults import CrashWindow, FaultPlan
from repro.network.simulator import NetworkSimulator
from repro.network.walker import RetryPolicy
from repro.query.exact import (
    evaluate_exact,
    evaluate_exact_groups,
    evaluate_on_columns,
    measured_selectivity,
    rank_of_value,
)
from repro.query.model import (
    AggregateOp,
    AggregationQuery,
    Between,
    Comparison,
    InSet,
    Not,
    Or,
)
from repro.service import QueryService

#: Domain sizes at each width's edge: 127 / 128 and 32,767 / 32,768.
DOMAINS = (2, 100, 127, 128, 32_767, 32_768)

FAULTS = FaultPlan(
    seed=11,
    reply_loss=0.2,
    crashes=tuple(
        CrashWindow(peer_id=peer, start=0, stop=10**6)
        for peer in range(0, 200, 9)
    ),
    probe_timeout_ms=200.0,
)

SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _as_int64(dataset):
    """``dataset``'s rows, every array stored as ``int64``."""
    store = dataset.databases.store
    wide = FlatDataset(
        {name: data.astype(np.int64) for name, data in store.scan().items()},
        store.offsets,
    )
    return GeneratedDataset(
        config=dataset.config,
        values=dataset.values.astype(np.int64),
        databases=DatabaseTable(wide, block_size=dataset.config.block_size),
        group_values=(
            None
            if dataset.group_values is None
            else dataset.group_values.astype(np.int64)
        ),
    )


def _queries(low, high, fraction):
    """Every query kind over ``[low, high]`` and a few other shapes."""
    ranged = Between("A", low, high)
    shapes = [
        ranged,
        Or(Comparison("A", "<", low + 0.5), Comparison("A", ">=", high)),
        Not(InSet("A", (float(low), float(high), 1e9))),
        # Integer bounds a narrow width cannot hold: cast to it, 356
        # would match 100 and -156 would match 100 too.
        Or(InSet("A", (low + 256, high)), Comparison("A", "<=", low - 256)),
    ]
    queries = []
    for predicate in shapes:
        queries += [
            AggregationQuery(AggregateOp.COUNT, "A", predicate),
            AggregationQuery(AggregateOp.SUM, "A", predicate),
            AggregationQuery(AggregateOp.AVG, "A", predicate),
            AggregationQuery(AggregateOp.MEDIAN, "A", predicate),
            AggregationQuery(
                AggregateOp.QUANTILE, "A", predicate, quantile=fraction
            ),
        ]
    for agg in (AggregateOp.COUNT, AggregateOp.SUM, AggregateOp.AVG):
        queries.append(AggregationQuery(agg, "A", ranged, group_by="G"))
    return queries


def _answer(evaluate, *args):
    """``evaluate(*args)``, or the error it raised, as comparable text:
    ``repr`` of a float is its bits (``-0.0`` and ``0.0`` differ)."""
    try:
        return repr(evaluate(*args))
    except QueryError as error:
        return f"QueryError: {error}"


def _exact_answers(dataset, queries, probe):
    store = dataset.databases.store
    answers = []
    for query in queries:
        evaluate = evaluate_exact if query.group_by is None else (
            evaluate_exact_groups
        )
        answers += [
            _answer(evaluate, query, store),
            _answer(evaluate, query, list(dataset.databases)),
            _answer(measured_selectivity, query, store),
        ]
        if query.group_by is None:
            answers.append(_answer(evaluate_on_columns, query, store.scan()))
    answers += [
        _answer(rank_of_value, probe, store, "A"),
        _answer(rank_of_value, probe, list(dataset.databases), "A"),
        repr(float(dataset.total_sum())),
    ]
    return answers


def _served(topology, dataset, queries, fault_plan):
    """Each query's outcome served from ``dataset``: its status and
    error, the estimate (or per-group estimates) and the cost."""
    simulator = NetworkSimulator(
        topology, dataset.databases, seed=7, fault_plan=fault_plan
    )
    service = QueryService(
        simulator,
        TwoPhaseConfig(
            phase_one_peers=30,
            max_phase_two_peers=60,
            retry_policy=RetryPolicy(max_attempts=3, backoff_base_ms=10.0),
        ),
        seed=99,
    )
    tickets = [service.submit(query, 0.1) for query in queries]
    service.run()
    served = []
    for ticket in tickets:
        outcome = service.outcome(ticket)
        result = outcome.result
        served.append((
            outcome.status,
            repr(outcome.error),
            repr(getattr(result, "groups", getattr(result, "estimate", None))),
            repr(outcome.cost),
        ))
    return served


def _generated(topology, num_values, num_groups, skew, cluster_level, seed):
    return generate_dataset(
        topology,
        DatasetConfig(
            num_tuples=3_000,
            num_values=num_values,
            skew=skew,
            cluster_level=cluster_level,
            group_column="G",
            num_groups=num_groups,
        ),
        seed=seed,
    )


def _negative(topology, dtype, seed):
    """A store at ``dtype``: half its values at the bottom of the
    width, half at the top, shuffled (groups ``-3..3``).  A median that
    falls between the two halves — the whole table's, or a peer's over
    an even split — interpolates across a gap wider than ``dtype``
    holds.
    """
    shaped = generate_dataset(
        topology, DatasetConfig(num_tuples=3_000, group_column="G"), seed=seed
    )
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype)
    values = np.concatenate([
        rng.integers(info.min, info.min + 8, 1_500, endpoint=True),
        rng.integers(info.max - 8, info.max, 1_500, endpoint=True),
    ])
    rng.shuffle(values)
    columns = {
        "A": values.astype(dtype),
        "G": rng.integers(-3, 3, 3_000, endpoint=True).astype(dtype),
    }
    store = FlatDataset(columns, shaped.databases.store.offsets)
    return GeneratedDataset(
        config=shaped.config,
        values=store.column("A"),
        databases=DatabaseTable(store, block_size=shaped.config.block_size),
        group_values=store.column("G"),
    )


class TestGeneratedDomains:
    @settings(SETTINGS, max_examples=30)
    @given(
        num_values=st.sampled_from(DOMAINS),
        num_groups=st.sampled_from(DOMAINS),
        skew=st.sampled_from([0.0, 0.2, 1.5]),
        cluster_level=st.sampled_from([0.0, 0.25, 1.0]),
        seed=st.integers(0, 2**16),
        bounds=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        fraction=st.floats(0.01, 0.99),
    )
    def test_exact_answers(
        self, small_topology, num_values, num_groups, skew, cluster_level,
        seed, bounds, fraction,
    ):
        narrow = _generated(
            small_topology, num_values, num_groups, skew, cluster_level, seed
        )
        assert narrow.values.dtype == domain_dtype(num_values)
        assert narrow.group_values.dtype == domain_dtype(num_groups)
        low, high = sorted(round(1 + b * (num_values - 1)) for b in bounds)
        queries = _queries(low, high, fraction)
        assert _exact_answers(narrow, queries, high + 0.5) == (
            _exact_answers(_as_int64(narrow), queries, high + 0.5)
        )

    @pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faulty"])
    @settings(SETTINGS, max_examples=6)
    @given(
        num_values=st.sampled_from(DOMAINS),
        num_groups=st.sampled_from(DOMAINS),
        seed=st.integers(0, 2**16),
        bounds=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    )
    def test_served_answers(
        self, small_topology, faults, num_values, num_groups, seed, bounds
    ):
        narrow = _generated(
            small_topology, num_values, num_groups, 0.2, 0.25, seed
        )
        low, high = sorted(round(1 + b * (num_values - 1)) for b in bounds)
        queries = _queries(low, high, 0.3)[:5] + _queries(low, high, 0.3)[-3:]
        assert _served(small_topology, narrow, queries, faults) == _served(
            small_topology, _as_int64(narrow), queries, faults
        )


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
class TestLoadedNegativeStore:
    def test_exact_answers(self, small_topology, dtype):
        narrow = _negative(small_topology, dtype, seed=5)
        assert narrow.values.dtype == dtype
        info = np.iinfo(dtype)
        for low, high, fraction in [
            (info.min, info.max, 0.5),
            (info.min, 0, 0.1),
            (-5, info.max // 2, 0.97),
        ]:
            queries = _queries(low, high, fraction)
            assert _exact_answers(narrow, queries, high - 0.5) == (
                _exact_answers(_as_int64(narrow), queries, high - 0.5)
            )

    @pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faulty"])
    def test_served_answers(self, small_topology, dtype, faults):
        narrow = _negative(small_topology, dtype, seed=6)
        info = np.iinfo(dtype)
        # Every shape: a peer's local quantile over a subset straddles
        # the two halves when its matching rows split just so.
        queries = _queries(info.min, info.max, 0.3)
        assert _served(small_topology, narrow, queries, faults) == _served(
            small_topology, _as_int64(narrow), queries, faults
        )
