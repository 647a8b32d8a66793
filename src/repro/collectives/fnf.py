"""Fastest-Node-First tree construction (Banikazemi, Moorthy & Panda [3]).

The paper's running example (Fig 1): given an all-link weight matrix (lower
weight = better link), grow the tree from the root in iterations. Every
iteration walks the already-selected machines *in the order they were added*
and lets each pick the unselected machine with its best link; the picked
machine is removed from the candidate pool immediately (so two senders never
pick the same receiver within an iteration) and joins the selected set at the
end of the iteration. Each node therefore gains at most one child per
iteration — the same doubling structure as a binomial tree, but with
network-aware link choices.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_square_matrix, check_index
from ..errors import ValidationError
from .trees import CommTree

__all__ = ["fnf_tree"]

# Relative gap below which two link weights count as a tie. Weights from
# RPCA solves carry round-off of order 1e-10 relative (the ``exact`` and
# ``gram`` SVT paths differ by that much), far below any real link
# difference, so a tie the network cannot decide is never broken by noise.
_TIE_RTOL = 1e-9


def fnf_tree(weights: np.ndarray, root: int = 0) -> CommTree:
    """Build the FNF communication tree for *weights* rooted at *root*.

    Parameters
    ----------
    weights:
        N×N link-weight matrix; ``weights[i, j]`` is the cost of the directed
        link i→j and smaller is better. The diagonal is ignored.
    root:
        Root machine (the collective's root process).

    Returns
    -------
    CommTree
        Children are recorded in the order they were attached, which is also
        the send order the FNF schedule implies.

    Notes
    -----
    A sender's candidates within 1e-9 (relative) of its best link are
    tied, and the lowest index among them wins — the same rule an exact
    tie follows — so weight matrices that differ only by solver round-off
    build the same tree.

    The selection scan is vectorized: for each sender the pick from the
    remaining pool is one masked scan over a weight row rather than a
    Python loop over candidates, so the construction is O(N² ) numpy work
    for the O(N log N) picks.
    """
    w = as_square_matrix(weights, "weights")
    n = w.shape[0]
    check_index(root, n, "root")
    if n == 1:
        return CommTree(root=root, parent=np.array([-1]), children=((),))
    if not np.all(np.isfinite(w[~np.eye(n, dtype=bool)])):
        raise ValidationError("weights must be finite off-diagonal")

    parent = np.full(n, -1, dtype=np.intp)
    children: list[list[int]] = [[] for _ in range(n)]
    selected: list[int] = [root]  # S, in insertion order
    in_pool = np.ones(n, dtype=bool)  # U membership mask
    in_pool[root] = False
    remaining = n - 1

    while remaining > 0:
        added_this_iter: list[int] = []
        for s in selected:
            if remaining == 0:
                break
            row = np.where(in_pool, w[s], np.inf)
            best = row.min()
            r = int(np.argmax(row <= best + _TIE_RTOL * abs(best)))  # first tie
            parent[r] = s
            children[s].append(r)
            in_pool[r] = False
            remaining -= 1
            added_this_iter.append(r)
        selected.extend(added_this_iter)

    return CommTree(
        root=root, parent=parent, children=tuple(tuple(c) for c in children)
    )
