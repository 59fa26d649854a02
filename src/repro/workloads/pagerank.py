"""PageRank as SQL (Section 5.4.3).

The three queries PR Q1 (out-degrees), PR Q2 (initialization) and PR Q3
(the iterated update) from the paper, plus a driver that runs the full
algorithm by materializing each query's result back into the catalog —
exactly how a relational engine hosts PageRank.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ExecutionError
from repro.common.timing import TimingBreakdown
from repro.datasets.graphs import Graph, graph_catalog
from repro.storage.table import Table

PR_Q1 = """
    SELECT NODE.ID, COUNT(EDGE.SRC) AS degree
    FROM NODE, EDGE
    WHERE NODE.ID = EDGE.SRC
    GROUP BY NODE.ID;
"""

PR_Q2 = """
    SELECT NODE.ID, (1 - @alpha) / @num_node AS rank
    FROM NODE, OUTDEGREE
    WHERE NODE.ID = OUTDEGREE.ID;
"""

PR_Q3 = """
    SELECT SUM(@alpha * PAGERANK.rank / OUTDEGREE.degree)
           + (1 - @alpha) / @num_node AS score
    FROM PAGERANK, OUTDEGREE
    WHERE PAGERANK.ID = OUTDEGREE.ID;
"""

# Per-destination variant of PR Q3: the full algorithm needs scores per
# node, which in SQL is the same update grouped by the edge destination.
PR_Q3_PER_NODE = """
    SELECT EDGE.DST, SUM(@alpha * PAGERANK.rank / OUTDEGREE.degree)
    FROM PAGERANK, OUTDEGREE, EDGE
    WHERE PAGERANK.ID = OUTDEGREE.ID
      AND PAGERANK.ID = EDGE.SRC
    GROUP BY EDGE.DST;
"""

DEFAULT_ALPHA = 0.85


def sql_pagerank(
    make_engine,
    graph: Graph,
    alpha: float = DEFAULT_ALPHA,
    iterations: int = 50,
    tolerance: float = 1e-9,
) -> tuple[np.ndarray, TimingBreakdown, int]:
    """Run the full PageRank algorithm through SQL queries.

    ``make_engine(catalog)`` builds an engine over the PageRank catalog.
    Returns (scores indexed by node, total simulated time, iterations).
    PR Q1 and PR Q2 run once; the per-node PR Q3 runs until convergence
    or the iteration cap (the paper uses 50 iterations).
    """
    catalog = graph_catalog(graph)
    engine = make_engine(catalog)
    breakdown = TimingBreakdown()
    n = graph.n_nodes

    q1 = engine.execute(PR_Q1)
    breakdown.add("pr_q1_outdegree", q1.seconds)
    degrees_table = q1.require_table()
    data = degrees_table.to_dict()
    id_col = [c for c in degrees_table.column_names if "id" in c.lower()][0]
    deg_col = [c for c in degrees_table.column_names if c != id_col][0]
    catalog.register(
        Table.from_dict("outdegree", {
            "id": data[id_col].astype(np.int64),
            "degree": data[deg_col].astype(float),
        }),
        replace=True,
    )

    q2 = engine.execute(PR_Q2, params={"alpha": alpha, "num_node": n})
    breakdown.add("pr_q2_init", q2.seconds)
    init = q2.require_table().to_dict()
    init_id = [c for c in init if "id" in c.lower()][0]
    init_rank = [c for c in init if c != init_id][0]
    catalog.register(
        Table.from_dict("pagerank", {
            "id": init[init_id].astype(np.int64),
            "rank": init[init_rank].astype(float),
        }),
        replace=True,
    )

    scores = np.zeros(n)
    ids = init[init_id].astype(np.int64)
    scores[ids] = init[init_rank]
    base = (1 - alpha) / n
    ran = 0
    for _ in range(iterations):
        ran += 1
        q3 = engine.execute(
            PR_Q3_PER_NODE, params={"alpha": alpha, "num_node": n}
        )
        breakdown.add("pr_q3_update", q3.seconds)
        update = q3.require_table().to_dict()
        dst_col = [c for c in update if "dst" in c.lower()]
        if not dst_col:
            raise ExecutionError("PR Q3 result lacks a destination column")
        val_col = [c for c in update if c != dst_col[0]][0]
        new_scores = np.full(n, base)
        new_scores[update[dst_col[0]].astype(np.int64)] += update[val_col]
        delta = float(np.abs(new_scores - scores).sum())
        scores = new_scores
        catalog.register(
            Table.from_dict("pagerank", {
                "id": np.arange(n),
                "rank": scores,
            }),
            replace=True,
        )
        if delta < tolerance:
            break
    return scores, breakdown, ran


def reference_pagerank(
    graph: Graph, alpha: float = DEFAULT_ALPHA, iterations: int = 50,
    tolerance: float = 1e-9,
) -> np.ndarray:
    """Plain numpy PageRank used as ground truth in tests.

    Matches the paper's formulation: dangling nodes do not redistribute
    (scores simply decay toward the teleport term), and the update is
    score[v] = (1-alpha)/n + alpha * sum_{u->v} score[u]/deg(u).
    """
    n = graph.n_nodes
    degrees = np.bincount(graph.src, minlength=n).astype(float)
    base = (1 - alpha) / n
    # PR Q2 initializes every rank to (1-alpha)/n.
    scores = np.full(n, base)
    for _ in range(iterations):
        contribution = np.where(degrees > 0, scores / np.maximum(degrees, 1), 0.0)
        spread = np.zeros(n)
        np.add.at(spread, graph.dst, contribution[graph.src])
        updated = base + alpha * spread
        if np.abs(updated - scores).sum() < tolerance:
            scores = updated
            break
        scores = updated
    return scores
