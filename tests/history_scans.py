"""Full-history reference strategies for the equivalence tests."""

from qgames.arena import History
from qgames.strategies import Strategy


def scanning(name, fn, player=1):
    """``fn(arena, history) -> edge`` as a strategy whose summary is the
    history so far, each edge checked once as it is appended."""

    def update(history, e):
        return (History(e.src) if history is None else history).extend(e)

    def decide(ar, v, history):
        return fn(ar, History(v) if history is None else history)

    return Strategy(name, None, update, decide, player=player)
