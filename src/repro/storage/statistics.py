"""Load-time statistics (paper Section 4, load-stage structure 2).

The decomposer records (a) the number ``s(S)`` of target objects per TSS
and (b) the average fan-out ``c(S -> S')`` of every TSS edge in both
directions.  The optimizer uses them to order nested-loop joins and to
estimate candidate-network result sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .persistence import TargetObjectTables


@dataclass
class Statistics:
    """Cardinality statistics over a target-object graph."""

    tss_counts: dict[str, int] = field(default_factory=dict)
    edge_counts: dict[str, int] = field(default_factory=dict)
    avg_fanout: dict[str, float] = field(default_factory=dict)
    avg_fanin: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_target_object_graph(cls, to_graph: TargetObjectTables) -> "Statistics":
        """Two ``GROUP BY`` counts over the TO graph's tables."""
        stats = cls(tss_counts=to_graph.tss_counts())
        instances_of = to_graph.edge_counts()
        for tss_edge in to_graph.tss_graph.edges():
            instances = instances_of.get(tss_edge.edge_id, 0)
            stats.edge_counts[tss_edge.edge_id] = instances
            sources = stats.tss_counts.get(tss_edge.source, 0)
            targets = stats.tss_counts.get(tss_edge.target, 0)
            stats.avg_fanout[tss_edge.edge_id] = instances / sources if sources else 0.0
            stats.avg_fanin[tss_edge.edge_id] = instances / targets if targets else 0.0
        return stats

    def refresh_from(self, to_graph: TargetObjectTables) -> None:
        """Recompute all statistics in place after an incremental mutation.

        In place so the optimizer's live reference stays valid — the
        engine is built once against this object and never rebuilt.
        """
        fresh = Statistics.from_target_object_graph(to_graph)
        for mine, theirs in (
            (self.tss_counts, fresh.tss_counts),
            (self.edge_counts, fresh.edge_counts),
            (self.avg_fanout, fresh.avg_fanout),
            (self.avg_fanin, fresh.avg_fanin),
        ):
            mine.clear()
            mine.update(theirs)

    def count(self, tss_name: str) -> int:
        """s(S): target objects of one TSS."""
        return self.tss_counts.get(tss_name, 0)

    def fanout(self, edge_id: str) -> float:
        """c(S -> S') following the edge forward."""
        return self.avg_fanout.get(edge_id, 0.0)

    def fanin(self, edge_id: str) -> float:
        """c(S' -> S) following the edge backward."""
        return self.avg_fanin.get(edge_id, 0.0)
