"""RL005 bad fixture: orphan and untested batch functions."""


def transform_batch(rows):
    # no scalar 'transform' exists anywhere in this module
    return [row * 2 for row in rows]


def visit(peer, ledger):
    ledger.record_visit(peer, 0, 0)
    return peer


def visit_batch(peers, ledger):
    # has a scalar twin, but the equivalence suite never touches it
    return [visit(peer, ledger) for peer in peers]
