"""The footprint is a contract, checked without a stopwatch.

Serving a network reads numpy arrays and nothing else, so that is all
it may cost:

* ``scipy`` (the eigensolve in :mod:`repro.network.spectral`) and
  ``networkx`` (``random_regular_topology``, ``Topology.to_networkx``
  and hence churn) are imported by the functions that call them.
  Importing ``repro``, building a generated fixture and serving it —
  inline or through forked workers — must load neither: together they
  are ≈ 46 MB of RSS and ≈ 0.4 s per process, paid by every bench
  child and every forked worker.  Checked in a fresh interpreter, by
  ``sys.modules`` and by an import hook that forked workers inherit.
* A generated dataset is one column store and its per-peer databases
  are slices built on request, so from ``generate_dataset`` to a
  service's first clean answer **zero** ``LocalDatabase`` objects are
  constructed and ``FlatDataset.from_databases`` hands back the
  dataset's own store.  Per-peer copies coming back into the generator
  or ``NetworkSnapshot`` fail here by count.
* Serving loads only the modules it runs.  ``repro`` and its packages
  re-export nothing beyond the quickstart, so a service answering
  every aggregate kind never imports the extensions and baselines it
  does not call.  Checked in its own fresh interpreter, since the
  scipy check above imports :mod:`repro.network.spectral` on purpose.
* Every module under ``src/repro`` is run by something that serves,
  plots or benchmarks: read from the source with :mod:`ast`, the
  imports reachable from the package, the service, the figure CLI, the
  tools, ``bench/`` and ``benchmarks/`` cover the whole tree.  A module
  only its own tests or an example import fails here by name.
"""

import ast
import multiprocessing
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.two_phase import TwoPhaseConfig
from repro.data.flat import FlatDataset
from repro.data.generator import DatasetConfig, generate_dataset
from repro.data.localdb import LocalDatabase
from repro.network.generators import power_law_topology
from repro.network.simulator import NetworkSimulator
from repro.query.parser import parse_query
from repro.service import QueryService

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

SCRIPT = textwrap.dedent(
    """
    import sys

    HEAVY = ("scipy", "networkx")

    class Refuse:
        armed = True

        def find_spec(self, name, path=None, target=None):
            if self.armed and name.split(".")[0] in HEAVY:
                raise ImportError(f"{name} imported on the serving path")
            return None

    refuse = Refuse()
    sys.meta_path.insert(0, refuse)

    def loaded(stage):
        found = [name for name in HEAVY if name in sys.modules]
        assert not found, f"{found} loaded after {stage}"

    import repro
    loaded("import repro")

    from repro.core.two_phase import TwoPhaseConfig
    from repro.data.generator import DatasetConfig, generate_dataset
    from repro.network.generators import (
        gnutella_2001_like,
        power_law_topology,
        random_regular_topology,
    )
    from repro.network.simulator import NetworkSimulator
    from repro.network.spectral import analyze_topology
    from repro.query.parser import parse_query
    from repro.service import QueryService

    topology = power_law_topology(300, 1200, seed=1)
    gnutella_2001_like(300, 400, seed=1)  # the trimming path too
    dataset = generate_dataset(
        topology, DatasetConfig(num_tuples=6_000), seed=1
    )
    network = NetworkSimulator(topology, dataset.databases, seed=1)
    loaded("building a fixture")

    query = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")
    for workers in WORKERS:
        with QueryService(
            network, TwoPhaseConfig(), seed=2, workers=workers
        ) as service:
            ticket = service.submit(query, 0.1)
            service.await_result(ticket)
            outcome = service.outcome(ticket)
            # A worker that tried the import comes back failed.
            assert outcome.ok, outcome.error
        loaded(f"serving with workers={workers}")

    # Asked for, they load, and still work.
    refuse.armed = False
    profile = analyze_topology(topology)
    assert 0.0 < profile.spectral_gap < 1.0
    assert "scipy.sparse.linalg" in sys.modules
    assert "networkx" not in sys.modules
    regular = random_regular_topology(20, 4, seed=3)
    assert set(regular.degrees.tolist()) == {4}
    assert "networkx" in sys.modules
    graph = topology.to_networkx()
    assert graph.number_of_edges() == topology.num_edges
    print("footprint ok")
    """
)


def test_serving_loads_neither_scipy_nor_networkx():
    workers = [None, 2] if HAS_FORK else [None]
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c",
         f"WORKERS = {workers!r}\n{SCRIPT}"],
        capture_output=True,
        text=True,
        timeout=100,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("footprint ok")


# What serving COUNT / SUM / AVG / MEDIAN / GROUP BY never calls.
UNUSED_BY_SERVING = (
    "repro.core.batch",
    "repro.core.biased",
    "repro.metrics.accuracy",
    "repro.network.churn",
    "repro.network.live",
    "repro.network.spectral",
    "repro.obs.manifest",
    "repro.sampling",
    "repro.sampling.baselines",
)

SERVING_SCRIPT = textwrap.dedent(
    """
    import sys

    import repro
    from repro.network.generators import power_law_topology
    from repro.service import QueryService

    topology = power_law_topology(300, 1200, seed=1)
    dataset = repro.generate_dataset(
        topology,
        repro.DatasetConfig(num_tuples=6_000, group_column="G", num_groups=4),
        seed=1,
    )
    network = repro.NetworkSimulator(topology, dataset.databases, seed=1)
    with QueryService(network, seed=2) as service:
        for sql in (
            "SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30",
            "SELECT SUM(A) FROM T",
            "SELECT AVG(A) FROM T",
            "SELECT MEDIAN(A) FROM T",
            "SELECT COUNT(A) FROM T GROUP BY G",
        ):
            ticket = service.submit(repro.parse_query(sql), 0.2)
            service.await_result(ticket)
            outcome = service.outcome(ticket)
            assert outcome.ok, outcome.error
    found = [name for name in UNUSED if name in sys.modules]
    assert not found, f"serving loaded {found}"
    print("serving footprint ok")
    """
)


def test_serving_loads_only_what_it_runs():
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c",
         f"UNUSED = {UNUSED_BY_SERVING!r}\n{SERVING_SCRIPT}"],
        capture_output=True,
        text=True,
        timeout=100,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("serving footprint ok")


class TestStoreCounts:
    """From a dataset to the first clean answer: no per-peer object,
    no concatenation.  Counts repeat exactly."""

    NUM_PEERS = 2_000
    QUERY = parse_query("SELECT COUNT(A) FROM T WHERE A BETWEEN 1 AND 30")

    @pytest.fixture()
    def counts(self, monkeypatch):
        """``LocalDatabase`` constructions, and what every
        ``FlatDataset.from_databases`` call returned."""
        counts = {"LocalDatabase": 0, "flattened": []}
        init = LocalDatabase.__init__
        from_databases = FlatDataset.from_databases.__func__

        def counting_init(self, *args, **kwargs):
            counts["LocalDatabase"] += 1
            init(self, *args, **kwargs)

        def recording(cls, databases):
            flat = from_databases(cls, databases)
            counts["flattened"].append(flat)
            return flat

        monkeypatch.setattr(LocalDatabase, "__init__", counting_init)
        monkeypatch.setattr(
            FlatDataset, "from_databases", classmethod(recording)
        )
        return counts

    def _serve(self, topology, databases):
        network = NetworkSimulator(topology, databases, seed=1)
        assert network.flat_dataset is databases.store
        assert network.total_tuples() == databases.store.num_tuples
        with QueryService(network, TwoPhaseConfig(), seed=2) as service:
            ticket = service.submit(self.QUERY, 0.1)
            service.await_result(ticket)
            assert service.outcome(ticket).cost.peers_visited > 0
        # What the harness's exact evaluator asks for.
        assert FlatDataset.from_databases(databases) is databases.store

    def test_generated_dataset_to_first_answer(self, counts):
        topology = power_law_topology(self.NUM_PEERS, 8_000, seed=3)
        # The patches are live.
        LocalDatabase({"A": [1, 2]})
        assert counts["LocalDatabase"] == 1
        counts["LocalDatabase"] = 0

        dataset = generate_dataset(
            topology, DatasetConfig(num_tuples=40_000), seed=3
        )
        self._serve(topology, dataset.databases)
        assert counts["LocalDatabase"] == 0
        assert [flat is dataset.databases.store
                for flat in counts["flattened"]] == [True]

        # Somebody asks for one database: exactly one is built.
        assert dataset.databases[7].num_tuples == 20
        assert counts["LocalDatabase"] == 1


REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported(path, name):
    """Every dotted name ``path`` (module ``name``) imports, at any
    depth of its body, with each name's parent packages."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = name.split(".")
                if path.name != "__init__.py":
                    package.pop()
                package = package[:len(package) - node.level + 1]
                base = ".".join(package + ([base] if base else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return {
        ".".join(parts[:end])
        for parts in (target.split(".") for target in found)
        for end in range(1, len(parts) + 1)
    }


def test_every_module_is_reached():
    modules = {
        _module_name(path): path for path in (SRC / "repro").rglob("*.py")
    }
    roots = {"repro", "repro.service", "repro.experiments.__main__"}
    roots |= {name for name in modules if name.startswith("repro.tools.")}
    # Examples are not callers: they demonstrate code and decide
    # nothing, so a module only an example runs is served, plotted and
    # benchmarked by nobody.
    for directory in ("bench", "benchmarks"):
        for path in (REPO / directory).glob("*.py"):
            roots |= _imported(path, f"{directory}.{path.stem}")
    reached = roots & modules.keys()
    pending = list(reached)
    while pending:
        name = pending.pop()
        for target in _imported(modules[name], name) & modules.keys():
            if target not in reached:
                reached.add(target)
                pending.append(target)
    orphans = sorted(modules.keys() - reached)
    assert not orphans, f"nothing that runs imports {orphans}"
