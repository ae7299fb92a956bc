"""The master index: an inverted keyword index (paper Section 4, item 1).

For each keyword ``k`` the index stores triplets ``(TO id, node id,
schema node)`` — the target object containing the node of that schema
type whose text contains ``k``.  The paper realized it with Oracle
interMedia Text; here it is a plain relational table with a B-tree on the
keyword column, which is all the experiments rely on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..xmlgraph.model import XMLGraph
from .database import Database, in_chunks
from .target_objects import TargetObjectGraph

_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens of a text value."""
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class IndexEntry:
    """One containing-list element for a keyword."""

    to_id: str
    node_id: str
    schema_node: str


class MasterIndex:
    """Inverted index from keywords to containing target objects."""

    TABLE = "master_index"

    def __init__(self, database: Database) -> None:
        self.database = database

    def create(self) -> None:
        """Create the master-index table."""
        self.database.execute(
            f"""CREATE TABLE IF NOT EXISTS {self.TABLE} (
                keyword TEXT NOT NULL,
                to_id TEXT NOT NULL,
                node_id TEXT NOT NULL,
                schema_node TEXT NOT NULL,
                PRIMARY KEY (keyword, to_id, node_id)
            ) WITHOUT ROWID"""
        )

    def load(
        self,
        graph: XMLGraph,
        to_graph: TargetObjectGraph,
        text_nodes: frozenset[str],
        index_tags: bool = False,
    ) -> int:
        """Index every text node's value (and optionally every tag).

        Returns the number of index entries written.
        """
        written, _ = self.add_entries(
            graph.nodes(), to_graph.to_of_node, text_nodes, index_tags=index_tags
        )
        self.database.commit()
        return written

    # ------------------------------------------------------------------
    # Incremental maintenance (the update subsystem's delta surface)
    # ------------------------------------------------------------------
    def add_entries(
        self,
        nodes,
        to_of_node,
        text_nodes: frozenset[str],
        index_tags: bool = False,
    ) -> tuple[int, set[str]]:
        """Index a batch of new nodes; the caller commits.

        Args:
            nodes: Iterable of :class:`~repro.xmlgraph.model.Node`.
            to_of_node: Mapping (or callable-free dict) from node id to
                owning target-object id; unmapped nodes are skipped.
            text_nodes: Labels whose values are indexed.
            index_tags: Also index element tags as keywords.

        Returns:
            ``(entries written, distinct keywords touched)``.
        """
        rows: set[tuple[str, str, str, str]] = set()
        for node in nodes:
            to_id = to_of_node.get(node.node_id)
            if to_id is None:
                continue
            tokens: set[str] = set()
            if node.label in text_nodes and node.value:
                tokens.update(tokenize(node.value))
            if index_tags:
                tokens.update(tokenize(node.label))
            for token in tokens:
                rows.add((token, to_id, node.node_id, node.label))
        self.database.executemany(
            f"INSERT OR IGNORE INTO {self.TABLE} VALUES (?, ?, ?, ?)", sorted(rows)
        )
        return len(rows), {row[0] for row in rows}

    def remove_entries(self, node_ids) -> tuple[int, set[str]]:
        """Drop every entry of the given nodes; the caller commits.

        Returns:
            ``(entries removed, distinct keywords touched)``.
        """
        removed = 0
        keywords: set[str] = set()
        for placeholders, chunk in in_chunks(node_ids):
            keywords.update(
                row[0]
                for row in self.database.query(
                    f"SELECT DISTINCT keyword FROM {self.TABLE} "
                    f"WHERE node_id IN ({placeholders})",
                    chunk,
                )
            )
            cursor = self.database.execute(
                f"DELETE FROM {self.TABLE} WHERE node_id IN ({placeholders})", chunk
            )
            removed += max(0, cursor.rowcount)
        return removed, keywords

    # ------------------------------------------------------------------
    def containing_list(self, keyword: str) -> list[IndexEntry]:
        """The containing list L(k) of one keyword."""
        rows = self.database.query(
            f"SELECT to_id, node_id, schema_node FROM {self.TABLE} WHERE keyword = ?",
            (keyword.lower(),),
        )
        return [IndexEntry(*row) for row in rows]

    def schema_nodes_for(self, keyword: str) -> set[str]:
        """Schema nodes whose extension contains the keyword."""
        rows = self.database.query(
            f"SELECT DISTINCT schema_node FROM {self.TABLE} WHERE keyword = ?",
            (keyword.lower(),),
        )
        return {row[0] for row in rows}

    def keyword_count(self, keyword: str) -> int:
        """Number of index entries for one keyword."""
        row = self.database.query_one(
            f"SELECT COUNT(*) FROM {self.TABLE} WHERE keyword = ?", (keyword.lower(),)
        )
        return int(row[0]) if row else 0
