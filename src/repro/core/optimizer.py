"""The query optimizer (paper Section 4, adapted from DISCOVER's).

Two decisions dominate performance, both NP-complete in general:

1. **which connection relations evaluate each CTSSN** — solved exactly by
   the branch-and-bound minimum cover of
   :mod:`repro.decomposition.cover` (networks are tiny);
2. **how to order the nested loops** — the outermost loop iterates the
   keyword with the smallest containing list, and subsequent pieces are
   chosen greedily by (a) whether they bind further keyword-filtered
   roles (cheap filters early) and (b) statistics-estimated fan-out.

Common subexpressions across candidate networks are exploited by the
execution layer's shared result cache (keyed by relation + bindings), so
two CNs probing the same relation with the same junction ids reuse work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..decomposition.cover import CoverPiece, min_cover
from ..decomposition.fragments import Fragment
from ..storage.relations import RelationStore
from ..storage.statistics import Statistics
from ..trace import Span
from .ctssn import CTSSN
from .plans import ExecutionPlan, PlanStep


class PlanningError(Exception):
    """Raised when no plan exists over the available decompositions."""


@dataclass
class Optimizer:
    """Plans CTSSN evaluation over one or more loaded decompositions.

    Attributes:
        stores: Relation stores by decomposition name, in priority order —
            when two decompositions materialize the same fragment, the
            earlier store wins (e.g. prefer the clustered one).
        statistics: Load-time statistics for fan-out estimation.
        epoch: Reads the database's mutation epoch (``None``: a
            database no write reaches).  Relation row counts are
            memoized per epoch: a live write changes them, so the memo
            is dropped when the epoch moves.
    """

    stores: dict[str, RelationStore]
    statistics: Statistics
    epoch: Callable[[], int] | None = None
    _row_counts: dict[str, int] = field(default_factory=dict)
    _rows_epoch: int = 0

    def _fragment_universe(self) -> list[tuple[Fragment, str]]:
        universe: list[tuple[Fragment, str]] = []
        seen: set[str] = set()
        for store_name, store in self.stores.items():
            for fragment in store.decomposition.fragments:
                if fragment.relation_name not in seen:
                    seen.add(fragment.relation_name)
                    universe.append((fragment, store_name))
        return universe

    def _rows(self, fragment: Fragment, store_name: str) -> int:
        epoch = self.epoch() if self.epoch is not None else 0
        if epoch != self._rows_epoch:
            self._row_counts = {}
            self._rows_epoch = epoch
        count = self._row_counts.get(fragment.relation_name)
        if count is None:
            count = self.stores[store_name].row_count(fragment)
            self._row_counts[fragment.relation_name] = count
        return count

    # ------------------------------------------------------------------
    def plan(
        self,
        ctssn: CTSSN,
        role_costs: dict[int, int] | None = None,
        anchor_role: int | None = None,
        max_joins: int | None = None,
        span: Span | None = None,
    ) -> ExecutionPlan:
        """Build an execution plan for one candidate TSS network.

        Args:
            ctssn: The network to evaluate.
            role_costs: Estimated admissible target objects per annotated
                role (from the containing lists); picks the outer loop.
            anchor_role: Force a specific outer role (used by the
                on-demand expansion algorithm, which anchors at the
                clicked node's role).
            max_joins: Optional hard bound B on the join count.
            span: Trace span annotated with the chosen anchor, relation
                order, and the plan tree (``None`` when tracing is off).
        """
        network = ctssn.network
        if anchor_role is None:
            anchor_role = self._pick_anchor(ctssn, role_costs or {})
        if network.size == 0:
            plan = ExecutionPlan(ctssn, (), anchor_role)
            if span is not None:
                span.annotate(
                    anchor_role=anchor_role,
                    joins=0,
                    relations="-",
                    detail=plan.describe(),
                )
            return plan

        universe = self._fragment_universe()
        store_of = {
            fragment.relation_name: store_name for fragment, store_name in universe
        }
        cover = min_cover(
            network,
            [fragment for fragment, _ in universe],
            max_pieces=None if max_joins is None else max_joins + 1,
            cost_of=lambda fragment: self._rows(
                fragment, store_of[fragment.relation_name]
            ),
        )
        if cover is None:
            raise PlanningError(
                f"no decomposition in {sorted(self.stores)} covers {ctssn}"
            )
        steps = self._order_pieces(ctssn, cover, anchor_role, store_of)
        plan = ExecutionPlan(ctssn, tuple(steps), anchor_role)
        if span is not None:
            span.annotate(
                anchor_role=anchor_role,
                joins=max(0, len(steps) - 1),
                relations=" -> ".join(
                    step.piece.fragment.relation_name for step in steps
                ),
                detail=plan.describe(),
            )
        return plan

    # ------------------------------------------------------------------
    def score_lower_bound(self, ctssn: CTSSN) -> int:
        """Minimum achievable MTNN size of any result of ``ctssn``.

        Under the paper's ranking every result of a CTSSN scores exactly
        the source CN's size, so the bound is tight: ``ctssn.score``.
        The engine groups CTSSNs into size classes by it and compares
        it against the global k-th best collected score, so a class that
        cannot contribute is skipped before it is costed or planned.
        """
        return ctssn.score

    # ------------------------------------------------------------------
    def estimate_results(
        self, ctssn: CTSSN, role_costs: dict[int, int] | None = None
    ) -> float:
        """Statistics-based estimate of the CTSSN's result count.

        Starting from the anchor role's admissible target objects, each
        edge multiplies by its average fan-out in the traversal
        direction (the load-stage ``c(S -> S')`` statistics), and each
        further keyword role filters by its selectivity.  Used to order
        same-score candidate networks cheapest-first.
        """
        role_costs = role_costs or {}
        network = ctssn.network
        anchor = self._pick_anchor(ctssn, role_costs)
        anchor_count = role_costs.get(anchor)
        if anchor_count is None:
            anchor_count = self.statistics.count(network.labels[anchor]) or 1
        estimate = float(anchor_count)
        visited = {anchor}
        frontier = [anchor]
        while frontier:
            role = frontier.pop()
            for edge in network.incident(role):
                other = edge.other(role)
                if other in visited:
                    continue
                visited.add(other)
                frontier.append(other)
                if edge.oriented_from(role):
                    estimate *= max(self.statistics.fanout(edge.edge_id), 1e-9)
                else:
                    estimate *= max(self.statistics.fanin(edge.edge_id), 1e-9)
                if other in role_costs:
                    total = self.statistics.count(network.labels[other]) or 1
                    estimate *= min(1.0, role_costs[other] / total)
        return estimate

    def _pick_anchor(self, ctssn: CTSSN, role_costs: dict[int, int]) -> int:
        keyword_roles = [role for role, _ in ctssn.keyword_roles()]
        if not keyword_roles:
            return 0
        return min(
            keyword_roles, key=lambda role: (role_costs.get(role, 1 << 30), role)
        )

    def _order_pieces(
        self,
        ctssn: CTSSN,
        cover: list[CoverPiece],
        anchor_role: int,
        store_by_relation: dict[str, str],
    ) -> list[PlanStep]:
        """Greedy join ordering over the chosen cover.

        The step order is part of the executors' determinism contract:
        the anchor role plus each step's sorted ``new_roles`` define the
        *binding order* both backends enumerate and compare rows by (the
        Python nested loops via the canonical candidate sort, the SQL
        compiler via ``ORDER BY`` — see
        :func:`repro.core.sqlcompile.binding_order`).  Reordering steps
        changes which k-subset a >k-result CN contributes, so any change
        here must keep both backends reading the same plan.
        """
        keyword_roles = {role for role, _ in ctssn.keyword_roles()}
        remaining = list(cover)
        bound: set[int] = set()
        steps: list[PlanStep] = []

        def piece_roles(piece: CoverPiece) -> set[int]:
            return {network_role for _, network_role in piece.role_map}

        def rank(piece: CoverPiece, first: bool) -> tuple:
            roles = piece_roles(piece)
            store_name = store_by_relation[piece.fragment.relation_name]
            rows = self._rows(piece.fragment, store_name)
            new_keywords = len((roles - bound) & keyword_roles)
            if first:
                return (0 if anchor_role in roles else 1, -new_keywords, rows)
            shares = len(roles & bound)
            return (0 if shares else 1, -new_keywords, rows)

        first = True
        while remaining:
            remaining.sort(key=lambda piece: rank(piece, first))
            piece = remaining.pop(0)
            roles = piece_roles(piece)
            if not first and not roles & bound:  # pragma: no cover - covers are connected
                raise PlanningError("disconnected cover piece ordering")
            steps.append(
                PlanStep(
                    piece=piece,
                    store_name=store_by_relation[piece.fragment.relation_name],
                    shared_roles=tuple(sorted(roles & bound)),
                    new_roles=tuple(sorted(roles - bound)),
                )
            )
            bound |= roles
            first = False
        return steps
