"""Plan → SQL compiler: execute whole join plans inside the DBMS.

The paper's system ships each candidate-network plan to the relational
engine as one statement; the Python executor instead nested-loops over
per-probe queries, so every intermediate tuple crosses the Python
boundary.  This module closes that gap: an :class:`ExecutionPlan` is an
ordered join tree over materialized connection-relation tables, so it
renders directly as one parameterized ``SELECT``:

* the anchor fragment is bound first through the keyword filter (the
  containing list's admitted target objects become an ``IN`` parameter
  list — witness satisfaction is evaluated Python-side by
  :meth:`~repro.core.matching.ContainingLists.allowed_tos`, exactly as
  the Python executor's ``role_filters`` are);
* each subsequent :class:`~repro.core.plans.PlanStep` becomes an
  ``INNER JOIN`` equating its shared-role columns with the expressions
  that first bound those roles;
* MTTON injectivity (distinct roles bind distinct target objects) is a
  pairwise ``<>`` clique over the role expressions, and per-level
  assignment dedup becomes ``SELECT DISTINCT``;
* the global top-k bound is pushed down as ``LIMIT ?``: every result of
  one CTSSN scores exactly ``ctssn.score``, so score order is constant
  within a plan and the cutoff is monotone — the scheduler's skip logic
  handles cross-CN pruning.

Each candidate network is exactly one statement, and every data value
(admission ids, the ``LIMIT``) is a bound parameter.  Cross-CN shared
prefixes are a Python-executor mechanism: borrowing one here would cost
an extra statement and save none, so ``ExecutorConfig.share_prefixes``
is off on this backend.

Determinism contract: the Python executor enumerates rows
lexicographically in *binding order* (anchor value first, then each
step's newly bound roles in ascending role-id order — see
``CTSSNExecutor._compute``).  The compiled statement therefore carries
``ORDER BY`` over the same binding-order columns; SQLite's BINARY
collation compares UTF-8 bytes, which agrees with Python's code-point
string ordering, so both backends truncate ``limit=k`` to the identical
row subset.  That is what makes ``backend="sql"`` bit-for-bit equal to
the Python oracle in the equivalence suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..storage.database import quote_identifier
from ..storage.relations import RelationStore
from .execution import CTSSNExecutor, ResultRow
from .plans import ExecutionPlan


@dataclass(frozen=True)
class CompiledQuery:
    """One plan rendered as a single parameterized SELECT.

    ``roles`` gives, per select-list position, the CTSSN role the column
    binds; ``params`` are the keyword-filter values in select order (the
    ``LIMIT`` parameter, when ``with_limit`` is set, is appended by the
    executor at run time).  ``empty`` marks plans proven resultless at
    compile time (a keyword role whose admission set is empty) — no SQL
    is emitted for those.
    """

    sql: str
    params: tuple[str, ...]
    roles: tuple[int, ...]
    with_limit: bool = False
    empty: bool = False


#: Compile-time zero-result sentinel (an admission set was empty).
EMPTY_QUERY = CompiledQuery(sql="", params=(), roles=(), empty=True)


def binding_order(plan: ExecutionPlan) -> tuple[int, ...]:
    """Roles in the order the nested-loop executor binds them.

    The anchor role seeds the loop; each step then contributes its
    first-bound roles in ascending role-id order — the exact order the
    canonicalized Python enumeration (and therefore the compiled
    ``ORDER BY``) compares rows by.
    """
    ordered: list[int] = [plan.anchor_role]
    seen = {plan.anchor_role}
    for step in plan.steps:
        for role in sorted(step.new_roles):
            if role not in seen:
                seen.add(role)
                ordered.append(role)
    return tuple(ordered)


def compile_plan(
    plan: ExecutionPlan,
    stores: dict[str, RelationStore],
    role_filters: dict[int, set[str]],
    *,
    with_limit: bool = False,
) -> CompiledQuery:
    """Render one execution plan as a single parameterized SELECT.

    Args:
        plan: The optimizer's plan (at least one step; zero-join CTSSNs
            are evaluated from the containing list without SQL).
        stores: Relation stores by store name (supply physical tables).
        role_filters: Admitted target objects per keyword-annotated role
            (``CTSSNExecutor.role_filters``).
        with_limit: Append ``LIMIT ?`` (top-k pushdown; the bound is
            supplied at execution time).
    """
    if not plan.steps:
        raise ValueError("cannot compile a zero-step plan to SQL")
    role_expr: dict[int, str] = {}
    from_parts: list[str] = []
    where: list[str] = []
    params: list[str] = []

    for index, step in enumerate(plan.steps):
        alias = f"t{index}"
        fragment = step.piece.fragment
        on: list[str] = []
        join_columns: list[str] = []
        fresh_roles: list[tuple[int, str]] = []
        for fragment_role, network_role in sorted(step.piece.role_map):
            column = fragment.column_for_role(fragment_role)
            expression = f"{alias}.{quote_identifier(column)}"
            known = role_expr.get(network_role)
            if known is None:
                role_expr[network_role] = expression
                fresh_roles.append((network_role, column))
            else:
                on.append(f"{expression} = {known}")
                if not known.startswith(f"{alias}."):
                    join_columns.append(column)
        # Read the rotation copy clustered on this table's access column
        # — the join column probed per outer row, or (for the seed
        # table) the most selective keyword-admission column — so the
        # DBMS gets the same index-organized access path the Python
        # executor's per-probe lookup picks.
        if join_columns:
            access = join_columns[0]
        else:
            filtered = [
                (len(role_filters[role]), column)
                for role, column in fresh_roles
                if role_filters.get(role)
            ]
            access = min(filtered)[1] if filtered else None
        table = stores[step.store_name].clustered_table(fragment, access)
        if not from_parts:
            from_parts.append(f"{table} AS {alias}")
            where.extend(on)
        else:
            from_parts.append(
                f"JOIN {table} AS {alias} ON {' AND '.join(on) if on else '1 = 1'}"
            )

    # Keyword admission: the containing lists' admitted target objects,
    # bound as parameters.
    for role in sorted(role_expr):
        allowed = role_filters.get(role)
        if allowed is None:
            continue
        if not allowed:
            return EMPTY_QUERY
        ordered_values = sorted(allowed)
        placeholders = ", ".join("?" for _ in ordered_values)
        where.append(f"{role_expr[role]} IN ({placeholders})")
        params.extend(ordered_values)

    # Injectivity: an MTTON is a *set* of target objects, so distinct
    # roles must bind distinct ids.
    roles = sorted(role_expr)
    for position, role_a in enumerate(roles):
        for role_b in roles[position + 1 :]:
            where.append(f"{role_expr[role_a]} <> {role_expr[role_b]}")

    ordered_roles = binding_order(plan)
    select = ", ".join(f"{role_expr[role]} AS r{role}" for role in ordered_roles)
    lines = [f"SELECT DISTINCT {select}", f"FROM {from_parts[0]}"]
    lines.extend(f"  {part}" for part in from_parts[1:])
    if where:
        lines.append("WHERE " + "\n  AND ".join(where))
    lines.append("ORDER BY " + ", ".join(f"r{role}" for role in ordered_roles))
    if with_limit:
        lines.append("LIMIT ?")
    return CompiledQuery(
        sql="\n".join(lines),
        params=tuple(params),
        roles=ordered_roles,
        with_limit=with_limit,
    )


def render_sql(
    plan: ExecutionPlan,
    stores: dict[str, RelationStore],
    role_filters: dict[int, set[str]],
) -> str:
    """The compiled SQL for EXPLAIN output (never raises on edge plans)."""
    if not plan.steps:
        return (
            "-- zero-join plan: results come straight from the containing "
            "list, no SQL is compiled"
        )
    compiled = compile_plan(plan, stores, role_filters)
    if compiled.empty:
        return "-- no SQL: a keyword admission set is empty (zero results)"
    return compiled.sql


def _one_line(sql: str) -> str:
    """Compiled SQL flattened for span attributes and logs."""
    return " ".join(sql.split())


class SQLCTSSNExecutor(CTSSNExecutor):
    """Executes one planned CTSSN as a single compiled SQL statement.

    Falls back to the Python nested-loop superclass for the cases SQL
    does not cover: zero-join plans (no relations to join — results come
    from the containing list) and the on-demand expansion path
    (``fixed_bindings``/``prefer``), which needs preference-ordered
    incremental enumeration.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        stores: dict[str, RelationStore],
        containing,
        **kwargs,
    ) -> None:
        """Superclass arguments pass through unchanged."""
        super().__init__(plan, stores, containing, **kwargs)
        self._database = (
            stores[plan.steps[0].store_name].database if plan.steps else None
        )

    # ------------------------------------------------------------------
    def run(
        self,
        limit: int | None = None,
        fixed_bindings: ResultRow | None = None,
        prefer: dict[int, set[str]] | None = None,
    ) -> Iterator[ResultRow]:
        """One compiled statement, or the superclass's nested loops."""
        if (
            fixed_bindings
            or prefer is not None
            or self._database is None
            or not self.plan.steps
        ):
            yield from super().run(limit, fixed_bindings, prefer)
            return
        yield from self._run_sql(limit)

    def _run_sql(self, limit: int | None) -> Iterator[ResultRow]:
        compiled = compile_plan(
            self.plan,
            self._stores,
            self.role_filters,
            with_limit=limit is not None,
        )
        if compiled.empty:
            return
        params: list = list(compiled.params)
        if compiled.with_limit:
            params.append(limit)
        self.metrics.queries_sent += 1
        rows = self._database.query(compiled.sql, params)
        self.metrics.rows_fetched += len(rows)
        if self._span is not None:
            self._span.record_lookup("compiled-sql", len(rows), False)
            self._span.annotate(sql=_one_line(compiled.sql))
        for row in rows:
            self.metrics.results += 1
            yield dict(zip(compiled.roles, row))
