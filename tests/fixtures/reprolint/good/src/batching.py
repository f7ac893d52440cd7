"""RL005 good fixture: batch functions with scalar twins."""


def visit(peer, ledger):
    ledger.record_visit(peer, 0, 0)
    return peer


def visit_batch(peers, ledger):
    return [visit(peer, ledger) for peer in peers]


class Engine:
    def estimate(self, peer):
        return float(peer)

    def estimate_batch(self, peers):
        return [self.estimate(peer) for peer in peers]
