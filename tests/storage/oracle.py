"""Python enumeration of fragment embeddings: the relation builder's oracle.

:func:`fragment_instances` builds its own adjacency from the
target-object graph's tables and yields every embedding of a fragment,
the definition the SQL builder in :mod:`repro.storage.relations` must
reproduce row for row.
"""

from __future__ import annotations

from typing import Iterator

from repro.decomposition.fragments import Fragment
from repro.storage.persistence import EDGE_TABLE, TO_TABLE, TargetObjectTables


def _adjacency(to_graph: TargetObjectTables):
    """``(TOs per TSS, forward, backward)``, read from the TO tables."""
    database = to_graph.database
    by_tss: dict[str, list[str]] = {}
    for to_id, tss in database.query(f"SELECT to_id, tss FROM {TO_TABLE}"):
        by_tss.setdefault(tss, []).append(to_id)
    forward: dict[tuple[str, str], list[str]] = {}
    backward: dict[tuple[str, str], list[str]] = {}
    for edge_id, source_to, target_to in database.query(
        f"SELECT edge_id, source_to, target_to FROM {EDGE_TABLE}"
    ):
        forward.setdefault((edge_id, source_to), []).append(target_to)
        backward.setdefault((edge_id, target_to), []).append(source_to)
    return by_tss, forward, backward


def fragment_instances(
    fragment: Fragment,
    to_graph: TargetObjectTables,
    anchor: tuple[int, str] | None = None,
) -> Iterator[tuple[str, ...]]:
    """All embeddings of a fragment into a loaded target-object graph.

    Rows are tuples of target-object ids in role order; roles must bind
    distinct target objects (a fragment instance is a *subgraph* of the
    target-object graph).

    Args:
        anchor: Optional ``(role, to_id)`` pair pinning one role to one
            target object.  Enumeration then walks outward from the
            anchor, yielding exactly the embeddings containing that
            target object in that role — the update subsystem's way to
            recompute only rows touched by a delta.
    """
    by_tss, forward, backward = _adjacency(to_graph)
    start = anchor[0] if anchor is not None else 0
    order: list[tuple[int, object]] = [(start, None)]
    seen = {start}
    frontier = [start]
    while frontier:
        role = frontier.pop()
        for edge in fragment.incident(role):
            nxt = edge.other(role)
            if nxt not in seen:
                seen.add(nxt)
                order.append((nxt, edge))
                frontier.append(nxt)

    assignment: dict[int, str] = {}

    def extend(index: int) -> Iterator[tuple[str, ...]]:
        if index == len(order):
            yield tuple(assignment[role] for role in range(fragment.role_count))
            return
        role, via = order[index]
        if via is None:
            if anchor is not None:
                candidates = [anchor[1]]
            else:
                candidates = by_tss.get(fragment.labels[role], [])
        else:
            bound = assignment[via.other(role)]  # type: ignore[union-attr]
            adjacent = forward if via.oriented_from(via.other(role)) else backward  # type: ignore[union-attr]
            candidates = adjacent.get((via.edge_id, bound), [])  # type: ignore[union-attr]
        taken = set(assignment.values())
        for candidate in candidates:
            if candidate in taken:
                continue
            assignment[role] = candidate
            yield from extend(index + 1)
            del assignment[role]

    yield from extend(0)
