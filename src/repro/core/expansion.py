"""On-demand presentation-graph expansion (paper Section 6, Figure 13).

Computing a full presentation graph up front is too expensive, so
XKeyword populates it lazily: when the user clicks a node of type ``N``,
a *minimal* set of focused queries finds (1) the candidate target
objects of type ``N`` and (2) for each, a minimal connection to the
displayed graph — preferring nodes already displayed, then fresh ones —
exactly the Figure 13 algorithm.

The choice of decomposition drives the cost profile measured in
Figure 16(b): adjacency probes want the *minimal* single-edge relations,
completing a whole MTTON wants the *inlined* fragments, and the
*combination* of both wins for candidate TSS networks of size > 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..decomposition.fragments import Fragment
from ..storage.relations import RelationStore
from .ctssn import CTSSN
from .execution import CTSSNExecutor, ExecutionMetrics, ExecutorConfig, ResultRow
from .matching import ContainingLists
from .optimizer import Optimizer
from .presentation import DisplayNode, PresentationGraph


@dataclass
class OnDemandNavigator:
    """Drives one candidate network's presentation graph from the DB."""

    ctssn: CTSSN
    optimizer: Optimizer
    stores: dict[str, RelationStore]
    containing: ContainingLists
    config: ExecutorConfig = field(default_factory=ExecutorConfig)
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    page_size: int | None = 10

    def __post_init__(self) -> None:
        self.graph = PresentationGraph(self.ctssn, page_size=self.page_size)

    # ------------------------------------------------------------------
    def initialize(self) -> PresentationGraph:
        """PG_0: the top-1 MTTON of the candidate network."""
        role_costs = {
            role: len(self.containing.allowed_tos(constraints))
            for role, constraints in self.ctssn.keyword_roles()
        }
        plan = self.optimizer.plan(self.ctssn, role_costs)
        executor = CTSSNExecutor(
            plan, self.stores, self.containing, config=self.config, metrics=self.metrics
        )
        for row in executor.run(limit=1):
            self.graph.add_rows([row])
            self.graph.initialize(row)
            return self.graph
        raise LookupError(f"candidate network has no results: {self.ctssn}")

    # ------------------------------------------------------------------
    def expand(self, role: int, exhaustive: bool = True) -> set[DisplayNode]:
        """Figure 13: expand the display on one node type.

        For every candidate target object ``u`` of the clicked type, a
        focused query checks whether ``u`` connects to all keywords,
        reusing displayed nodes first (so the expansion is minimal).

        Args:
            role: The CTSSN role (presentation type) clicked.
            exhaustive: Consider *every* target object of the TSS — the
                literal Figure 13 candidate set ``S``, required for the
                Section 3.2 completeness property (b).  ``False`` probes
                only target objects adjacent to the displayed graph
                (cheaper, but may miss results reached through fresh
                intermediate nodes).
        """
        candidates = self._candidates(role, exhaustive)
        prefer = {
            r: {to for (rr, to) in self.graph.displayed if rr == r}
            for r in range(self.ctssn.network.role_count)
        }
        plan = self.optimizer.plan(self.ctssn, anchor_role=role)
        executor = CTSSNExecutor(
            plan, self.stores, self.containing, config=self.config, metrics=self.metrics
        )
        new_rows: list[ResultRow] = []
        shown = 0
        for candidate in candidates:
            if self.page_size is not None and shown >= self.page_size:
                break
            for row in executor.run(
                limit=1, fixed_bindings={role: candidate}, prefer=prefer
            ):
                new_rows.append(row)
                shown += 1
        self.graph.add_rows(new_rows)
        return self.graph.expand(role)

    def contract(self, role: int, keep: str) -> set[DisplayNode]:
        """Contraction needs no new queries: hiding only removes nodes."""
        return self.graph.contract(role, keep)

    # ------------------------------------------------------------------
    def _candidates(self, role: int, exhaustive: bool) -> list[str]:
        """Candidate TOs of the clicked type, adjacent-displayed first."""
        network = self.ctssn.network
        ordered: list[str] = []
        seen: set[str] = set()
        allowed = None
        constraints = self.ctssn.annotations[role]
        if constraints:
            allowed = self.containing.allowed_tos(constraints)

        def admit(to_id: str) -> None:
            if to_id in seen:
                return
            if allowed is not None and to_id not in allowed:
                return
            seen.add(to_id)
            ordered.append(to_id)

        for edge in network.incident(role):
            neighbor = edge.other(role)
            fragment, store_name, column, neighbor_column = self._probe_relation(
                edge.edge_id, role_is_source=edge.oriented_from(role)
            )
            store = self.stores[store_name]
            neighbor_tos = sorted(
                to for (r, to) in self.graph.displayed if r == neighbor
            )
            position = fragment.columns.index(column)
            for to in neighbor_tos:
                self.metrics.queries_sent += 1
                rows = store.lookup(fragment, {neighbor_column: to})
                self.metrics.rows_fetched += len(rows)
                for row in rows:
                    admit(row[position])
            if exhaustive:
                self.metrics.queries_sent += 1
                rows = store.scan(fragment)
                self.metrics.rows_fetched += len(rows)
                for row in rows:
                    admit(row[position])
        return ordered

    def _probe_relation(
        self, edge_id: str, role_is_source: bool
    ) -> tuple[Fragment, str, str, str]:
        """The smallest available fragment containing a TSS edge.

        With the minimal decomposition loaded this is the single-edge
        relation (one cheap adjacency probe); with only the inlined
        decomposition the probe pays for a wider relation — the exact
        trade-off Figure 16(b) measures.
        """
        best: tuple[int, Fragment, str] | None = None
        for store_name, store in self.stores.items():
            for fragment in store.decomposition.fragments:
                for net_edge in fragment.edges:
                    if net_edge.edge_id != edge_id:
                        continue
                    if best is None or fragment.size < best[0]:
                        best = (fragment.size, fragment, store_name)
        if best is None:
            raise LookupError(f"no loaded relation contains TSS edge {edge_id!r}")
        _, fragment, store_name = best
        for net_edge in fragment.edges:
            if net_edge.edge_id == edge_id:
                source_col = fragment.column_for_role(net_edge.source)
                target_col = fragment.column_for_role(net_edge.target)
                if role_is_source:
                    return fragment, store_name, source_col, target_col
                return fragment, store_name, target_col, source_col
        raise AssertionError("unreachable")  # pragma: no cover


def open_navigator(
    ctssns: Sequence[CTSSN],
    optimizer: Optimizer,
    stores: dict[str, RelationStore],
    containing: ContainingLists,
    cn: int = -1,
) -> OnDemandNavigator | None:
    """A navigator initialized on the first candidate network with results.

    Candidates are tried best-first (score, then canonical key); a
    non-negative ``cn`` restricts the attempt to that index of the same
    order (the caller range-checks it).  The returned navigator's
    ``graph`` is its PG_0; ``None`` means no candidate has results.
    """
    candidates = sorted(ctssns, key=lambda c: (c.score, c.canonical_key))
    if cn >= 0:
        candidates = [candidates[cn]]
    for ctssn in candidates:
        navigator = OnDemandNavigator(ctssn, optimizer, stores, containing)
        try:
            navigator.initialize()
        except LookupError:
            continue
        return navigator
    return None
