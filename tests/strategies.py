"""Hypothesis strategies for small weighted graphs, kept apart from
helpers.py so that tests/identity.py runs without hypothesis."""

from hypothesis import strategies as st

from commdetect import Graph
from helpers import FRACTIONAL_WEIGHTS


@st.composite
def small_integer_weighted_graphs(draw, max_nodes=11):
    """Graphs of 2..max_nodes nodes and at least one edge, weights 1-3,
    which produce exact ties."""
    n = draw(st.integers(2, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(chosen), max_size=len(chosen)))
    return Graph(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])


@st.composite
def small_fractional_weighted_graphs(draw, max_nodes=11):
    """small_integer_weighted_graphs with every weight drawn from
    FRACTIONAL_WEIGHTS instead."""
    g = draw(small_integer_weighted_graphs(max_nodes))
    count = g.edge_count
    weights = draw(st.lists(st.sampled_from(FRACTIONAL_WEIGHTS), min_size=count, max_size=count))
    return Graph(g.node_count, [(u, v, w) for (u, v, _), w in zip(g.edges(), weights)])

