"""Capacitated bipartite matching by augmenting paths (Hall's theorem).

The matching conditions of the paper — ``⟨Q2⟩ ։∞ ⟨Q1⟩`` (Def. 5.14,
Thm. 5.17) and the order of the free ``Ssur[X]`` semiring — ask whether
every left *occurrence* can be assigned its own right occurrence along
the edges of a bipartite graph.  Both graphs are blow-ups: occurrences
come in groups of interchangeable copies (isomorphic CCQs, equal
monomials), and an edge joins every copy of a left group to every copy
of a right group or to none.  :func:`saturates` decides the question on
the groups directly — each left group *demands* its size, each right
group has its size as *capacity*, and edges are uncapacitated — which
is a maximum-flow problem whose value equals the maximum matching of
the blown-up graph.

Left groups are served in order, each by breadth-first augmenting paths
in the residual graph (forward along any edge, backward along an edge
that carries flow).  When a left group cannot be augmented, the left
groups the search reached demand more than their neighbourhood holds:
that is a Hall violation, and the answer is ``False`` at once.  Edges
are asked for lazily, one left group at a time as it is served, so the
edge tests of the groups after a violation never run; nor do any when
the total demand already exceeds the total capacity.

The function holds no state between calls.
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["saturates", "saturating_flow"]


def saturates(demand: Sequence[int], capacity: Sequence[int],
              edges: Callable[[int], Sequence[int]]) -> bool:
    """True iff left vertex ``i`` can send ``demand[i]`` units along its
    edges ``edges(i)`` (right indices) with right vertex ``j`` receiving
    at most ``capacity[j]`` units in total.

    Equivalently, the blow-up with ``demand[i]`` copies of left ``i``
    and ``capacity[j]`` copies of right ``j`` has a matching saturating
    the left side.  ``edges`` is called at most once per left vertex,
    in index order.
    """
    return saturating_flow(demand, capacity, edges) is not None


def saturating_flow(demand: Sequence[int], capacity: Sequence[int],
                    edges: Callable[[int], Sequence[int]]
                    ) -> list[dict[int, int]] | None:
    """The flow behind :func:`saturates`: ``flow[j][i]`` units go from
    left ``i`` to right ``j``, every left demand met; ``None`` when no
    such flow exists.  With unit demands and capacities it is a
    matching, each left ``i`` in exactly one ``flow[j]``."""
    if sum(demand) > sum(capacity):
        return None
    spare = list(capacity)
    # assigned[j][i]: units left vertex i currently sends to right j.
    assigned: list[dict[int, int]] = [{} for _ in capacity]
    adjacency: list[Sequence[int]] = []
    for source, need in enumerate(demand):
        adjacency.append(edges(source))
        while need:
            path = _augmenting_path(source, adjacency, spare, assigned)
            if path is None:
                return None
            need -= _augment(path, need, spare, assigned)
    return assigned


def _augmenting_path(source, adjacency, spare, assigned):
    """Breadth-first search from left ``source`` to a right vertex with
    spare capacity.  Returns the path as alternating
    ``[right, left, right, …, left = source]`` read from its end, or
    ``None`` when no right vertex with spare capacity is reachable."""
    reached_by: dict[int, int] = {}   # right j -> left it was reached from
    entered_by: dict[int, int] = {}   # left i -> right whose flow led to i
    frontier = [source]
    visited = {source}
    while frontier:
        following = []
        for left in frontier:
            for right in adjacency[left]:
                if right in reached_by:
                    continue
                reached_by[right] = left
                if spare[right]:
                    return _trace(right, source, reached_by, entered_by)
                for other in assigned[right]:
                    if other not in visited:
                        visited.add(other)
                        entered_by[other] = right
                        following.append(other)
        frontier = following
    return None


def _trace(end, source, reached_by, entered_by):
    path = [end]
    right = end
    while True:
        left = reached_by[right]
        path.append(left)
        if left == source:
            return path
        right = entered_by[left]
        path.append(right)


def _augment(path, need, spare, assigned) -> int:
    """Push the bottleneck amount along ``path``; return that amount."""
    amount = min(need, spare[path[0]])
    for index in range(2, len(path), 2):
        # Left path[index - 1] moves flow off right path[index]: no more
        # than it sends there can move.
        amount = min(amount, assigned[path[index]][path[index - 1]])
    spare[path[0]] -= amount
    for index in range(0, len(path) - 1, 2):
        right, left = path[index], path[index + 1]
        assigned[right][left] = assigned[right].get(left, 0) + amount
        if index + 2 < len(path):
            previous = path[index + 2]
            remaining = assigned[previous][left] - amount
            if remaining:
                assigned[previous][left] = remaining
            else:
                del assigned[previous][left]
    return amount
