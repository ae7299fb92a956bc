"""Execution plans over connection relations (paper Section 4 optimizer).

A plan fixes which connection relations evaluate a candidate TSS network
(the fragment *cover*), which physical store each comes from, and the
nested-loop order: each step binds the roles of one fragment embedding,
joining on the roles shared with previous steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..decomposition.cover import CoverPiece
from .ctssn import CTSSN


@dataclass(frozen=True)
class PlanStep:
    """One nested-loop level: a fragment embedding and its join keys."""

    piece: CoverPiece
    store_name: str
    shared_roles: tuple[int, ...]
    """CTSSN roles already bound before this step (the join keys)."""
    new_roles: tuple[int, ...]
    """CTSSN roles this step binds for the first time."""

    @property
    def relation_name(self) -> str:
        return self.piece.fragment.relation_name

    def column_of_role(self, role: int) -> str:
        """The fragment column bound to a given CTSSN role."""
        for fragment_role, network_role in self.piece.role_map:
            if network_role == role:
                return self.piece.fragment.column_for_role(fragment_role)
        raise KeyError(f"role {role} not covered by step {self.relation_name}")

    def roles(self) -> tuple[int, ...]:
        """All network roles this step's fragment embedding binds."""
        return tuple(network_role for _, network_role in self.piece.role_map)


@dataclass(frozen=True)
class ExecutionPlan:
    """An ordered cover of a CTSSN by fragment embeddings."""

    ctssn: CTSSN
    steps: tuple[PlanStep, ...]
    anchor_role: int
    """The role whose keyword filter seeds the outermost loop."""

    @property
    def join_count(self) -> int:
        """Number of joins the plan performs (pieces - 1)."""
        return max(0, len(self.steps) - 1)

    def describe(
        self,
        stores=None,
        role_filters: dict[int, set[str]] | None = None,
    ) -> str:
        """Human-readable plan, for logs and examples.

        Args:
            stores: Relation stores by store name; when given (together
                with ``role_filters``) the compiled SQL the ``sql``
                backend would execute is rendered below the nested-loop
                steps.
            role_filters: Admitted target objects per keyword role, as
                the executor computes them from the containing lists.
        """
        lines = [f"plan for {self.ctssn} (joins={self.join_count})"]
        for index, step in enumerate(self.steps):
            joins = ", ".join(f"r{r}" for r in step.shared_roles) or "-"
            news = ", ".join(f"r{r}" for r in step.new_roles) or "-"
            lines.append(
                f"  step {index}: {step.relation_name} [{step.store_name}] "
                f"join on {joins} binds {news}"
            )
        if stores is not None and role_filters is not None:
            from .sqlcompile import render_sql

            lines.append("  compiled sql:")
            lines.extend(
                f"    {sql_line}"
                for sql_line in render_sql(self, stores, role_filters).splitlines()
            )
        return "\n".join(lines)
