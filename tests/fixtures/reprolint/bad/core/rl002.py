"""RL002 bad fixture: unaccounted visits and pierced internals."""


def unledgered_visit(simulator, query, sink, peer):
    # no ledger anywhere: this visit is never charged
    return simulator.visit_aggregate(peer, query, sink=sink)


def free_traversal(simulator, peer):
    # learning the graph without a ledger in scope
    return list(simulator.topology.neighbors(peer))


def pierced_internals(simulator):
    # reaching into private simulator state skips record_visit entirely
    return simulator._snapshot.databases[0].scan()
