"""Candidate-network generation on the schema graph (paper Section 4).

A *candidate network* (Definition 4.1) is a schema node network — an
uncycled graph of schema nodes whose edges are schema edges, possibly
using the same schema node in several roles — that some conforming XML
instance can populate with a Minimal Total Node Network.

The generator extends DISCOVER's CN generator [13] with the XML-specific
pruning the paper describes:

* **choice nodes** — a choice-typed role may have at most one containment
  child (its instances have exactly one);
* **containment vs reference** — a role may have at most one incoming
  containment edge overall (an element has a single parent), while
  incoming references are unbounded;
* **maxoccurs** — at most ``maxoccurs`` parallel children per role per
  containment edge and at most one target per single-valued reference.

Keyword bookkeeping uses DISCOVER's exact-subset semantics: an annotated
role ``S^K`` stands for the nodes of type ``S`` containing exactly the
query keywords ``K``, so the keyword sets of a network's roles are
pairwise disjoint and results are produced exactly once.  Totality means
the union of the sets is the whole query; minimality means every leaf is
annotated (a free leaf could be dropped, contradicting MTNN minimality).

The "performance improvements over [13]" the paper claims come from two
mechanisms; the ablation benchmark quantifies them:

* **canonical dedupe** — non-redundancy by canonical tree encodings
  instead of the pairwise isomorphism checks of [13];
* **prune before build** — a child is judged from its parts (labels,
  per-role degrees, annotations, covered keywords, size) against sound
  distance and free-leaf bounds before any ``TSSNetwork`` exists, so
  only survivors are built (about one attachment in twenty).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from ..decomposition.fragments import NetEdge, TSSNetwork
from ..schema.graph import SchemaEdge, SchemaGraph, UNBOUNDED
from ..trace import Span
from .query import KeywordQuery


def schema_edge_id(edge: SchemaEdge) -> str:
    """Stable identifier of a schema edge (containment ``>``, reference ``~``)."""
    marker = ">" if edge.is_containment else "~"
    return f"{edge.source}{marker}{edge.target}"


@dataclass(frozen=True)
class CandidateNetwork:
    """A candidate network: a schema-level tree with keyword annotations."""

    network: TSSNetwork
    annotations: tuple[frozenset[str], ...]

    @property
    def size(self) -> int:
        """The network's size in schema edges — the MTNN score it yields."""
        return self.network.size

    @cached_property
    def canonical_key(self) -> str:
        extra = tuple(
            "^" + ",".join(sorted(keywords)) if keywords else ""
            for keywords in self.annotations
        )
        return self.network.canonical_key(extra)

    def keyword_roles(self) -> list[tuple[int, frozenset[str]]]:
        """Return ``(role, keywords)`` pairs for keyword-annotated roles."""
        return [
            (role, keywords)
            for role, keywords in enumerate(self.annotations)
            if keywords
        ]

    def covered_keywords(self) -> frozenset[str]:
        """Union of all keywords this network's annotations cover."""
        covered: frozenset[str] = frozenset()
        for keywords in self.annotations:
            covered |= keywords
        return covered

    def __str__(self) -> str:
        parts = []
        for role, label in enumerate(self.network.labels):
            keywords = self.annotations[role]
            tag = f"^{{{','.join(sorted(keywords))}}}" if keywords else ""
            parts.append(f"{label}{tag}")
        return " | ".join(parts) + f" :: {self.network}"


class _Partial(NamedTuple):
    """A frontier network plus the parts its children's pruning reads.

    ``degrees`` and ``covered`` are carried from parent to child, so no
    child re-derives them from the built network.
    """

    cn: CandidateNetwork
    degrees: tuple[int, ...]
    covered: frozenset[str]


@dataclass
class _Pruner:
    """The per-query prune bound, and how many candidates it rejected."""

    keywords: Sequence[str]
    max_size: int
    distances: dict[str, dict[str, int]]
    rejected: int = 0

    def rejects(
        self,
        labels: Sequence[str],
        degrees: Sequence[int],
        annotations: Sequence[frozenset[str]],
        covered: frozenset[str],
        size: int,
    ) -> bool:
        """Sound lower bounds on the edges a candidate still needs.

        Reads only the candidate's parts, so it runs before any
        ``TSSNetwork`` is built:

        * a free leaf can only become legal by growing a subtree that ends
          in roles annotated with *unused* keywords, so more free leaves
          than missing keywords is a dead end (with nothing missing, any
          free leaf is);
        * every missing keyword costs at least the schema distance from
          the closest role;
        * every free leaf's subtree must reach some missing keyword, and
          those subtrees are disjoint, so their minimum distances add up.
        """
        missing = [keyword for keyword in self.keywords if keyword not in covered]
        free_leaves = [
            labels[role]
            for role, degree in enumerate(degrees)
            if degree == 1 and not annotations[role]
        ]
        dead = len(free_leaves) > len(missing)
        if not dead:
            unreachable = self.max_size + 1
            reach_bound = 0
            for keyword in missing:
                dist = self.distances[keyword]
                reach_bound = max(
                    reach_bound, min(dist.get(label, unreachable) for label in labels)
                )
            leaf_bound = sum(
                min(self.distances[keyword].get(label, unreachable) for keyword in missing)
                for label in free_leaves
            )
            dead = max(reach_bound, leaf_bound) > self.max_size - size
        if dead:
            self.rejected += 1
        return dead


class CNGenerator:
    """Breadth-first generation of all candidate networks up to size Z."""

    def __init__(
        self,
        schema: SchemaGraph,
        keyword_schema_nodes: dict[str, set[str]],
        dedupe: bool = True,
    ) -> None:
        """
        Args:
            schema: The schema graph.
            keyword_schema_nodes: For each keyword, the schema nodes whose
                extension contains it (from the master index's containing
                lists).
            dedupe: Keep canonical-form deduplication on.  Turning it off
                reproduces the redundant-generation behaviour the paper
                improves on (used by the ablation benchmark only).
        """
        self.schema = schema
        self.keyword_schema_nodes = {
            keyword.lower(): set(nodes) for keyword, nodes in keyword_schema_nodes.items()
        }
        self.dedupe = dedupe

    # ------------------------------------------------------------------
    def generate(self, query: KeywordQuery, span: Span | None = None) -> list[CandidateNetwork]:
        """All candidate networks of size up to ``query.max_size``.

        ``span`` (when tracing) is annotated with ``pruned`` — candidates
        the bound rejected before any network was built — and
        ``expanded`` — candidates built and kept on the frontier.
        """
        keywords = query.keywords
        for keyword in keywords:
            if not self.keyword_schema_nodes.get(keyword):
                return []  # a keyword with no matches kills every CN
        pruner = _Pruner(keywords, query.max_size, self._keyword_distances(keywords))
        total = frozenset(keywords)
        anchor = keywords[0]
        results: list[CandidateNetwork] = []
        seen_results: set[str] = set()
        seen_partials: set[str] = set()
        frontier: list[_Partial] = []

        for schema_node in sorted(self.keyword_schema_nodes[anchor]):
            seed: TSSNetwork | None = None
            for subset in self._subsets_containing(schema_node, keywords, anchor):
                if pruner.rejects((schema_node,), (0,), (subset,), subset, 0):
                    continue
                if seed is None:
                    seed = TSSNetwork([schema_node], [])
                candidate = _Partial(CandidateNetwork(seed, (subset,)), (0,), subset)
                frontier.append(candidate)
                self._accept(candidate, total, results, seen_results)
        expanded = len(frontier)

        while frontier:
            next_frontier: list[_Partial] = []
            for partial in frontier:
                if partial.cn.size >= query.max_size:
                    continue
                for child in self._expansions(partial, pruner):
                    if self.dedupe:
                        key = child.cn.canonical_key
                        if key in seen_partials:
                            continue
                        seen_partials.add(key)
                    next_frontier.append(child)
                    self._accept(child, total, results, seen_results)
            expanded += len(next_frontier)
            frontier = next_frontier
        if span is not None:
            span.annotate(pruned=pruner.rejected, expanded=expanded)
        results.sort(key=lambda cn: (cn.size, cn.canonical_key))
        return results

    # ------------------------------------------------------------------
    def _keyword_distances(self, keywords: Sequence[str]) -> dict[str, dict[str, int]]:
        """Undirected schema distance from every node to each keyword's nodes."""
        adjacency: dict[str, set[str]] = {name: set() for name in self.schema.node_names()}
        for edge in self.schema.edges():
            adjacency[edge.source].add(edge.target)
            adjacency[edge.target].add(edge.source)
        distances: dict[str, dict[str, int]] = {}
        for keyword in keywords:
            sources = self.keyword_schema_nodes.get(keyword, set())
            dist = {node: 0 for node in sources}
            frontier = sorted(sources)
            while frontier:
                next_frontier = []
                for node in frontier:
                    for neighbor in adjacency[node]:
                        if neighbor not in dist:
                            dist[neighbor] = dist[node] + 1
                            next_frontier.append(neighbor)
                frontier = next_frontier
            distances[keyword] = dist
        return distances

    # ------------------------------------------------------------------
    @staticmethod
    def _accept(
        candidate: _Partial,
        total: frozenset[str],
        results: list[CandidateNetwork],
        seen: set[str],
    ) -> None:
        # A surviving candidate that covers every keyword has no free
        # leaf (the pruner rejects those), so it is minimal.
        if candidate.covered != total:
            return
        key = candidate.cn.canonical_key
        if key in seen:
            return
        seen.add(key)
        results.append(candidate.cn)

    def _subsets_containing(
        self, schema_node: str, keywords: Sequence[str], required: str | None
    ) -> Iterator[frozenset[str]]:
        eligible = [
            keyword
            for keyword in keywords
            if schema_node in self.keyword_schema_nodes.get(keyword, ())
        ]
        if required is not None and required not in eligible:
            return
        pool = [keyword for keyword in eligible if keyword != required]
        base = [required] if required is not None else []
        for size in range(len(pool) + 1):
            for combo in combinations(pool, size):
                subset = frozenset(base) | frozenset(combo)
                if subset:
                    yield subset

    def _expansions(self, partial: _Partial, pruner: _Pruner) -> Iterator[_Partial]:
        network = partial.cn.network
        remaining = [keyword for keyword in pruner.keywords if keyword not in partial.covered]
        for role, label in enumerate(network.labels):
            for edge in self.schema.out_edges(label):
                edge_id = schema_edge_id(edge)
                if self._attachment_blocked(network, role, edge, edge_id, outgoing=True):
                    continue
                yield from self._attach(partial, role, edge, edge_id, True, remaining, pruner)
            for edge in self.schema.in_edges(label):
                edge_id = schema_edge_id(edge)
                if self._attachment_blocked(network, role, edge, edge_id, outgoing=False):
                    continue
                yield from self._attach(partial, role, edge, edge_id, False, remaining, pruner)

    def _attach(
        self,
        partial: _Partial,
        role: int,
        edge: SchemaEdge,
        edge_id: str,
        outgoing: bool,
        remaining: Sequence[str],
        pruner: _Pruner,
    ) -> Iterator[_Partial]:
        """The children of one attachment that survive the pruner.

        The free attachment comes first, then one per subset of the
        unused keywords the new role can hold.  The grown network is
        built once, when the first variant survives, and shared by all.
        """
        network = partial.cn.network
        new_label = edge.target if outgoing else edge.source
        labels = network.labels + (new_label,)
        degrees = list(partial.degrees)
        degrees[role] += 1
        degrees.append(1)
        child_degrees = tuple(degrees)
        size = network.size + 1
        eligible = [
            keyword
            for keyword in remaining
            if new_label in self.keyword_schema_nodes.get(keyword, ())
        ]
        subsets = [frozenset()] + [
            frozenset(combo)
            for count in range(1, len(eligible) + 1)
            for combo in combinations(eligible, count)
        ]
        grown: TSSNetwork | None = None
        for subset in subsets:
            annotations = partial.cn.annotations + (subset,)
            covered = partial.covered | subset
            if pruner.rejects(labels, child_degrees, annotations, covered, size):
                continue
            if grown is None:
                new_role = network.role_count
                if outgoing:
                    joint = NetEdge(role, new_role, edge_id)
                else:
                    joint = NetEdge(new_role, role, edge_id)
                grown = TSSNetwork(labels, network.edges + (joint,))
            yield _Partial(CandidateNetwork(grown, annotations), child_degrees, covered)

    def _attachment_blocked(
        self,
        network: TSSNetwork,
        role: int,
        edge: SchemaEdge,
        edge_id: str,
        outgoing: bool,
    ) -> bool:
        """XML-specific satisfiability pruning at the attachment point."""
        incident = network.incident(role)
        if outgoing:
            # Parallel children over the same schema edge: maxoccurs bound.
            parallel = sum(
                1
                for existing in incident
                if existing.oriented_from(role) and existing.edge_id == edge_id
            )
            if edge.maxoccurs != UNBOUNDED and parallel + 1 > edge.maxoccurs:
                return True
            if self.schema.node(network.labels[role]).is_choice:
                # A choice instance realizes exactly one alternative,
                # containment or reference alike.
                realized = sum(1 for existing in incident if existing.oriented_from(role))
                if realized >= 1:
                    return True
            return False
        # Incoming edge: the new node is the parent/source.
        if edge.is_containment:
            containment_parents = sum(
                1
                for existing in incident
                if not existing.oriented_from(role) and ">" in existing.edge_id
            )
            if containment_parents >= 1:
                return True  # an element has one containment parent
        return False
