"""Decomposition strategies (paper Section 5.1 and Figure 12).

A *decomposition* fixes which connection relations are materialized at
load time and how they are physically organized.  The paper compares:

* **minimal** — one fragment per TSS edge; three physical variants used
  in Figure 15: ``MinClust`` (every clustering of every fragment),
  ``MinNClustIndx`` (heap relations + single-column indexes) and
  ``MinNClustNIndx`` (heap relations, no indexes);
* **complete** — all satisfiable fragments of size L;
* **maximal** — a fragment per possible candidate TSS network (zero
  joins, infeasible space; exposed for completeness/testing);
* **xkeyword** — the Figure 12 algorithm: inlined (non-MVD) fragments
  only, sized to meet the join bound B, with MVD fragments added last
  and only where unavoidable;
* **combined** — the union of xkeyword and minimal, which Section 6 uses
  for on-demand presentation-graph expansion.

Theorem 5.1 supplies the fragment-size bound ``L = ceil(M / (B + 1))``:
chopping a size-M network into B+1 chunks needs chunks of at least that
size.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from ..schema.tss import TSSGraph
from .cover import covers_with_joins
from .enumerate_fragments import enumerate_fragments, enumerate_networks, subtrees_of
from .fragments import Fragment, TSSNetwork, single_edge_fragment
from .mvd import classify_fragment
from .useless import is_useless


class IndexPolicy(enum.Enum):
    """Physical organization of connection relations (Section 7 variants)."""

    ALL_ROTATIONS = "all_rotations"
    """A clustered (index-organized) copy per rotation of the columns."""

    SINGLE_COLUMN_INDEXES = "single_column_indexes"
    """One heap relation with a secondary index on every id column."""

    NONE = "none"
    """One heap relation, no indexes (a focused lookup scans the table)."""


@dataclass(frozen=True)
class Decomposition:
    """A named set of fragments plus their physical organization."""

    name: str
    fragments: tuple[Fragment, ...]
    index_policy: IndexPolicy

    def __post_init__(self) -> None:
        names = [fragment.relation_name for fragment in self.fragments]
        if len(set(names)) != len(names):
            raise ValueError(f"decomposition {self.name!r} has duplicate fragments")

    def fragment_by_relation(self, relation_name: str) -> Fragment:
        for fragment in self.fragments:
            if fragment.relation_name == relation_name:
                return fragment
        raise KeyError(relation_name)

    def covers_all_edges(self, tss_graph: TSSGraph) -> bool:
        """Definition 5.2 validity: every TSS edge appears in a fragment."""
        used = {
            edge.edge_id for fragment in self.fragments for edge in fragment.edges
        }
        return all(edge.edge_id in used for edge in tss_graph.edges())

    def union(self, other: "Decomposition", name: str | None = None) -> "Decomposition":
        """Combine two decompositions (deduplicating fragments)."""
        seen = {fragment.relation_name for fragment in self.fragments}
        merged = list(self.fragments) + [
            fragment
            for fragment in other.fragments
            if fragment.relation_name not in seen
        ]
        return Decomposition(
            name or f"{self.name}+{other.name}", tuple(merged), self.index_policy
        )

    @property
    def size(self) -> int:
        return len(self.fragments)


def fragment_size_bound(max_network_size: int, max_joins: int) -> int:
    """Theorem 5.1: the fragment size L sufficient for the join bound B."""
    if max_network_size < 1:
        raise ValueError("max_network_size must be >= 1")
    if max_joins < 0:
        raise ValueError("max_joins must be >= 0")
    return math.ceil(max_network_size / (max_joins + 1))


def star_fragments_required(
    tss_graph: TSSGraph, max_network_size: int, max_joins: int
) -> list[Fragment]:
    """Theorem 5.2's lower bound, constructively.

    When the TSS graph's edges are star-like (one hub fanning out) and
    ``M = L * (B + 1)`` exactly, *every* satisfiable fragment of size L
    is needed: for each such fragment there is a size-M network whose
    ``B``-join evaluation must use it.  This function returns the
    fragments of size L for which such a witnessing network exists —
    on a theorem-shaped TSS graph that is all of them, which the tests
    verify by checking that removing any one fragment breaks coverage.
    """
    size_bound = fragment_size_bound(max_network_size, max_joins)
    if size_bound * (max_joins + 1) != max_network_size:
        raise ValueError(
            "Theorem 5.2 requires M = L * (B + 1); got "
            f"M={max_network_size}, B={max_joins}, L={size_bound}"
        )
    all_l = enumerate_fragments(tss_graph, size_bound, min_size=size_bound)
    networks = enumerate_networks(tss_graph, max_network_size, min_size=max_network_size)
    required = []
    for fragment in all_l:
        others = [f for f in all_l if f.relation_name != fragment.relation_name]
        if any(
            not covers_with_joins(network, others, max_joins)
            and covers_with_joins(network, all_l, max_joins)
            for network in networks
        ):
            required.append(fragment)
    return required


def minimal_fragments(tss_graph: TSSGraph) -> tuple[Fragment, ...]:
    """One single-edge fragment per TSS edge."""
    return tuple(
        single_edge_fragment(tss_graph, edge.edge_id) for edge in tss_graph.edges()
    )


def minimal_decomposition(
    tss_graph: TSSGraph, index_policy: IndexPolicy = IndexPolicy.ALL_ROTATIONS
) -> Decomposition:
    """The minimal decomposition; physical variant chosen by policy."""
    names = {
        IndexPolicy.ALL_ROTATIONS: "MinClust",
        IndexPolicy.SINGLE_COLUMN_INDEXES: "MinNClustIndx",
        IndexPolicy.NONE: "MinNClustNIndx",
    }
    return Decomposition(names[index_policy], minimal_fragments(tss_graph), index_policy)


def complete_decomposition(
    tss_graph: TSSGraph, max_network_size: int, max_joins: int
) -> Decomposition:
    """All satisfiable fragments of size up to L, MVD ones included."""
    size_bound = fragment_size_bound(max_network_size, max_joins)
    fragments = enumerate_fragments(tss_graph, size_bound)
    return Decomposition("Complete", tuple(fragments), IndexPolicy.ALL_ROTATIONS)


def maximal_decomposition(tss_graph: TSSGraph, max_network_size: int) -> Decomposition:
    """A fragment per possible candidate TSS network (zero joins).

    Infeasible in practice beyond toy sizes — exactly the paper's point —
    but useful for tests and small ablations.
    """
    fragments = enumerate_fragments(tss_graph, max_network_size)
    return Decomposition("Maximal", tuple(fragments), IndexPolicy.ALL_ROTATIONS)


def xkeyword_decomposition(
    tss_graph: TSSGraph,
    max_network_size: int,
    max_joins: int,
    networks: Sequence[TSSNetwork] | None = None,
) -> Decomposition:
    """The Figure 12 decomposition algorithm.

    1. start from all non-MVD fragments of size up to L;
    2. list the candidate TSS networks of size up to M not covered with
       at most B joins;
    3. add non-MVD fragments larger than L that cover some of them;
    4. cover the remainder with a greedy-minimal set of MVD fragments of
       size up to L.

    Args:
        tss_graph: The TSS graph.
        max_network_size: M, the largest candidate TSS network size.
        max_joins: B, the join bound.
        networks: Optional explicit list of networks to cover (defaults
            to every satisfiable network of size up to M).
    """
    size_bound = fragment_size_bound(max_network_size, max_joins)
    universe = enumerate_fragments(tss_graph, size_bound)
    chosen: list[Fragment] = []
    mvd_pool: list[Fragment] = []
    for fragment in universe:
        if classify_fragment(fragment, tss_graph).is_mvd:
            mvd_pool.append(fragment)
        else:
            chosen.append(fragment)

    if networks is None:
        networks = enumerate_networks(tss_graph, max_network_size)
    pending = [
        network
        for network in networks
        if not covers_with_joins(network, chosen, max_joins)
    ]

    # Step 3: larger non-MVD fragments that rescue uncovered networks.
    still_pending: list[TSSNetwork] = []
    for network in pending:
        candidates = [
            fragment
            for fragment in subtrees_of(network, size_bound + 1, network.size)
            if not classify_fragment(fragment, tss_graph).is_mvd
            and not is_useless(fragment, tss_graph)
        ]
        rescued = False
        existing = {f.relation_name for f in chosen}
        # Prefer the smallest helpful fragment to limit space.
        for fragment in sorted(candidates, key=lambda f: f.size):
            if fragment.relation_name in existing:
                continue
            if covers_with_joins(network, chosen + [fragment], max_joins):
                chosen.append(fragment)
                rescued = True
                break
        if not rescued and not covers_with_joins(network, chosen, max_joins):
            still_pending.append(network)

    # Step 4: greedy-minimal MVD fragments for whatever remains.  The
    # per-fragment contribution sets are computed once against the base
    # fragment set (coverage is monotone in the fragment set), then the
    # classic greedy set cover runs on those sets; a final incremental
    # sweep catches networks only coverable by *combinations* of the
    # newly added MVD fragments.
    if still_pending:
        contribution: dict[str, set[int]] = {}
        for fragment in mvd_pool:
            contribution[fragment.relation_name] = {
                position
                for position, network in enumerate(still_pending)
                if covers_with_joins(network, chosen + [fragment], max_joins)
            }
        uncovered = set(range(len(still_pending)))
        while uncovered:
            best_fragment = max(
                mvd_pool,
                key=lambda f: len(contribution[f.relation_name] & uncovered),
                default=None,
            )
            if (
                best_fragment is None
                or not contribution[best_fragment.relation_name] & uncovered
            ):
                break
            chosen.append(best_fragment)
            mvd_pool = [
                f for f in mvd_pool if f.relation_name != best_fragment.relation_name
            ]
            uncovered -= contribution[best_fragment.relation_name]
        if uncovered:
            # Combination sweep: re-test stragglers against the grown set.
            uncovered = {
                position
                for position in uncovered
                if not covers_with_joins(still_pending[position], chosen, max_joins)
            }
            for fragment in list(mvd_pool):
                if not uncovered:
                    break
                rescued = {
                    position
                    for position in uncovered
                    if covers_with_joins(
                        still_pending[position], chosen + [fragment], max_joins
                    )
                }
                if rescued:
                    chosen.append(fragment)
                    uncovered -= rescued

    # Definition 5.2 validity: every TSS edge must appear somewhere.
    used_edges = {edge.edge_id for fragment in chosen for edge in fragment.edges}
    for tss_edge in tss_graph.edges():
        if tss_edge.edge_id not in used_edges:
            chosen.append(single_edge_fragment(tss_graph, tss_edge.edge_id))

    return Decomposition("XKeyword", tuple(chosen), IndexPolicy.ALL_ROTATIONS)


def combined_decomposition(
    tss_graph: TSSGraph, max_network_size: int, max_joins: int
) -> Decomposition:
    """XKeyword plus minimal fragments — Section 6's expansion workhorse."""
    xkeyword = xkeyword_decomposition(tss_graph, max_network_size, max_joins)
    minimal = minimal_decomposition(tss_graph)
    return xkeyword.union(minimal, name="Combined")


def inlined_only_decomposition(
    tss_graph: TSSGraph, max_network_size: int, max_joins: int
) -> Decomposition:
    """The Figure 12 decomposition *without* gratuitous single edges.

    Figure 16(b) compares presentation-graph expansion over the pure
    "inlined, non-MVD" decomposition against the minimal one: adjacency
    probes must then pay for the wider relations.  Single-edge fragments
    are kept only where an edge appears in no wider fragment (otherwise
    Definition 5.2 validity would break).
    """
    xkeyword = xkeyword_decomposition(tss_graph, max_network_size, max_joins)
    wide = [fragment for fragment in xkeyword.fragments if fragment.size > 1]
    covered = {edge.edge_id for fragment in wide for edge in fragment.edges}
    keep = list(wide) + [
        fragment
        for fragment in xkeyword.fragments
        if fragment.size == 1 and fragment.edges[0].edge_id not in covered
    ]
    return Decomposition("Inlined", tuple(keep), xkeyword.index_policy)
