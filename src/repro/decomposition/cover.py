"""Join-bound coverage: can a decomposition evaluate a network in B joins?

A candidate TSS network ``C`` is *covered* by a decomposition when ``C``
can be evaluated with at most ``B`` joins (paper Section 5.1).  Because a
set of connected fragment embeddings whose edges cover the tree ``C`` can
always be joined pairwise on shared target-object id columns, ``C`` needs
exactly ``pieces - 1`` joins for the smallest edge cover by fragment
embeddings.  Finding that minimum cover is the NP-complete optimizer
sub-problem the paper mentions; networks are tiny (≤ M ≤ 8 edges), so a
branch-and-bound over embeddings decides it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fragments import Fragment, TSSNetwork, find_embeddings


@dataclass(frozen=True)
class CoverPiece:
    """One fragment embedding used in a cover."""

    fragment: Fragment
    role_map: tuple[tuple[int, int], ...]
    covered_edges: frozenset[int]

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.role_map)


def _edge_index(network: TSSNetwork) -> dict[tuple[int, int, str], int]:
    return {
        (edge.source, edge.target, edge.edge_id): position
        for position, edge in enumerate(network.edges)
    }


def embedding_pieces(network: TSSNetwork, fragment: Fragment) -> list[CoverPiece]:
    """All embeddings of ``fragment`` into ``network`` as cover pieces.

    Results are cached on the network instance: the Figure 12 algorithm
    re-tests the same (network, fragment) pairs many times while growing
    its fragment set.
    """
    cache: dict[str, list[CoverPiece]] = network.__dict__.setdefault("_pieces_cache", {})
    cached = cache.get(fragment.relation_name)
    if cached is not None:
        return cached
    index = _edge_index(network)
    pieces = []
    seen_coverage: set[tuple[frozenset[int], str]] = set()
    for mapping in find_embeddings(fragment, network):
        covered = frozenset(
            index[(mapping[e.source], mapping[e.target], e.edge_id)]
            for e in fragment.edges
        )
        dedupe_key = (covered, fragment.canonical_key())
        if dedupe_key in seen_coverage:
            continue  # symmetric embeddings cover identical edges
        seen_coverage.add(dedupe_key)
        pieces.append(CoverPiece(fragment, tuple(sorted(mapping.items())), covered))
    cache[fragment.relation_name] = pieces
    return pieces


def edge_ids_fit(fragment: TSSNetwork, network: TSSNetwork) -> bool:
    """Whether ``network`` has every edge id of ``fragment``, as often.

    An embedding maps fragment edges one-to-one onto network edges with
    the same id, so a fragment that does not fit has no embedding:
    :func:`min_cover` skips it without running the embedding search.
    """
    available = network.edge_id_counts
    return all(
        count <= available[edge_id]
        for edge_id, count in fragment.edge_id_counts.items()
    )


def min_cover(
    network: TSSNetwork,
    fragments: Sequence[Fragment],
    max_pieces: int | None = None,
    cost_of=None,
) -> list[CoverPiece] | None:
    """Smallest set of fragment embeddings covering every network edge.

    Returns ``None`` when no cover exists within ``max_pieces`` (or at
    all).  Single-edge coverage of every edge id is *not* assumed — the
    caller decides what the fragment universe is.

    Args:
        network: The network to cover.
        fragments: Candidate fragments.
        max_pieces: Optional hard bound on the cover size.
        cost_of: Optional ``fragment -> float`` (e.g. relation row
            counts).  Among minimum-piece covers the cheapest total cost
            wins — the statistics-driven relation choice of the paper's
            optimizer, which steers plans away from bloated MVD
            relations when thinner ones do the same job.
    """
    all_pieces: list[CoverPiece] = []
    for fragment in fragments:
        if edge_ids_fit(fragment, network):
            all_pieces.extend(embedding_pieces(network, fragment))
    if not all_pieces:
        return None
    pieces_by_edge: dict[int, list[CoverPiece]] = {}
    for piece in all_pieces:
        for edge in piece.covered_edges:
            pieces_by_edge.setdefault(edge, []).append(piece)
    total_edges = network.size
    if any(edge not in pieces_by_edge for edge in range(total_edges)):
        return None
    # Prefer big pieces first so the bound tightens early.
    for edge in pieces_by_edge:
        pieces_by_edge[edge].sort(key=lambda p: -len(p.covered_edges))

    best: list[CoverPiece] | None = None
    best_cost = float("inf")
    hard_limit = max_pieces if max_pieces is not None else total_edges
    max_piece = max(len(p.covered_edges) for p in all_pieces)

    def piece_cost(piece: CoverPiece) -> float:
        return float(cost_of(piece.fragment)) if cost_of is not None else 0.0

    def bound() -> int:
        """Largest cover size still worth finding."""
        if best is None:
            return hard_limit
        # With a cost function, same-size cheaper covers still matter.
        return min(hard_limit, len(best) - (0 if cost_of is not None else 1))

    def search(uncovered: frozenset[int], chosen: list[CoverPiece], cost: float) -> None:
        nonlocal best, best_cost
        if not uncovered:
            better = (
                best is None
                or len(chosen) < len(best)
                or (len(chosen) == len(best) and cost < best_cost)
            )
            if better:
                best = list(chosen)
                best_cost = cost
            return
        # Each remaining piece covers at most ``max_piece`` edges.
        needed = (len(uncovered) + max_piece - 1) // max_piece
        if len(chosen) + needed > bound():
            return
        if (
            best is not None
            and len(chosen) + needed == len(best)
            and cost >= best_cost
        ):
            return
        target = min(uncovered)
        for piece in pieces_by_edge[target]:
            chosen.append(piece)
            search(uncovered - piece.covered_edges, chosen, cost + piece_cost(piece))
            chosen.pop()

    search(frozenset(range(total_edges)), [], 0.0)
    return best


def covers_with_joins(
    network: TSSNetwork, fragments: Sequence[Fragment], max_joins: int
) -> bool:
    """Is ``network`` evaluable with at most ``max_joins`` joins?"""
    if network.size <= max_joins + 1:
        # Single-edge pieces suffice if each edge id has a matching
        # single-edge fragment; the general search is then unnecessary.
        singles = {
            fragment.edges[0].edge_id
            for fragment in fragments
            if fragment.size == 1
        }
        if all(edge.edge_id in singles for edge in network.edges):
            return True
    cover = min_cover(network, fragments, max_pieces=max_joins + 1)
    return cover is not None and len(cover) <= max_joins + 1
