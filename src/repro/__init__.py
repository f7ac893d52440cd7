"""p2p-aqp: approximate aggregation queries in peer-to-peer networks.

A from-scratch reproduction of Arai, Das, Gunopulos & Kalogeraki,
*"Approximating Aggregation Queries in Peer-to-Peer Networks"*
(ICDE 2006): adaptive two-phase random-walk sampling for approximate
COUNT/SUM/AVG/MEDIAN queries over unstructured P2P databases, together
with the full network/data/query substrate and the paper's experiment
harness.

Quickstart
----------

>>> import repro
>>> topology = repro.synthetic_paper_topology(seed=7, scale=0.05)
>>> dataset = repro.generate_dataset(
...     topology, repro.DatasetConfig(num_tuples=50_000), seed=7)
>>> network = repro.NetworkSimulator(topology, dataset.databases, seed=7)
>>> engine = repro.TwoPhaseEngine(network, seed=7)
>>> query = repro.parse_query(
...     "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
>>> result = engine.execute(query, delta_req=0.1)
>>> abs(result.estimate - repro.evaluate_exact(
...     query, dataset.databases)) / dataset.num_tuples < 0.1
True
"""

from .core.two_phase import TwoPhaseEngine
from .data.generator import DatasetConfig, generate_dataset
from .network.generators import synthetic_paper_topology
from .network.simulator import NetworkSimulator
from .query.exact import evaluate_exact
from .query.parser import parse_query

__version__ = "1.0.0"

__all__ = [
    "DatasetConfig",
    "NetworkSimulator",
    "TwoPhaseEngine",
    "evaluate_exact",
    "generate_dataset",
    "parse_query",
    "synthetic_paper_topology",
]
