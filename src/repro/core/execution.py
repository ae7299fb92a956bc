"""The execution module (paper Section 6).

Evaluates one candidate TSS network by nested-loop joining its plan's
connection relations, sending focused queries to the database exactly the
way the paper describes:

* the outermost loop iterates the target objects admitted by the anchor
  keyword's containing list;
* every inner level looks the next fragment up by the junction ids bound
  so far (an index/clustered lookup under the clustered policies);
* the **optimized** executor memoizes partial results: when the same
  junction ids reappear, the entire inner subtree is reused instead of
  re-queried (the paper's up-to-80% speedup; Figure 16(a)).  The cache is
  bounded, like the paper's fixed-size cache — on overflow, queries are
  simply re-sent;
* the **naive** executor (DISCOVER/DBXplorer behaviour) re-executes inner
  loops unconditionally.

Results are role -> target-object-id assignments; distinct roles must
bind distinct target objects (an MTTON is a *set* of target objects).
"""

from __future__ import annotations

import heapq
import os
from collections import Counter, OrderedDict
from dataclasses import KW_ONLY, dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from ..storage.relations import RelationStore
from ..trace import NullTrace, QueryTrace, Span
from .matching import ContainingLists
from .plans import ExecutionPlan, PlanStep

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .ctssn import CTSSN
    from .query import KeywordQuery
    from .results import MTTON
    from .streaming import _StreamEmitter

ResultRow = dict[int, str]
"""A result: CTSSN role -> target object id."""

STRATEGY_SERIAL = "serial"
"""Every CN evaluated independently: no cross-CN work sharing, no bound."""

STRATEGY_SHARED_PREFIX = "shared-prefix"
"""Shared join-step prefixes are materialized once and reused across CNs."""

STRATEGY_SHARED_PREFIX_PRUNING = "shared-prefix+pruning"
"""Prefix sharing plus global top-k early termination (the default)."""

STRATEGIES = (
    STRATEGY_SERIAL,
    STRATEGY_SHARED_PREFIX,
    STRATEGY_SHARED_PREFIX_PRUNING,
)
"""Valid values for :attr:`ExecutorConfig.strategy`, weakest first."""

BACKEND_PYTHON = "python"
"""Per-probe nested loops in Python with suffix memoization."""

BACKEND_SQL = "sql"
"""Each plan compiled to one SQL statement executed inside the DBMS."""

BACKENDS = (BACKEND_PYTHON, BACKEND_SQL)
"""Valid values for :attr:`ExecutorConfig.backend`."""

BACKEND_ENV_VAR = "REPRO_BACKEND"
"""Environment variable overriding the default backend (the test seam:
CI exports it to run the tier-1 suite on the ``python`` oracle too)."""

PIPELINE_STAGES = (
    "matching", "cn_generation", "ctssn_reduction", "planning", "execution",
    "first_result",
)
"""The one stage vocabulary: every key of
:attr:`ExecutionMetrics.stage_seconds`, hence every ``stage`` label of
``repro_stage_seconds`` (docs/OPERATIONS.md §5 is diffed against this).
The first five are the Fig 7 pipeline in order; ``first_result`` is the
streaming time-to-first-answer."""


@dataclass
class ExecutionMetrics:
    """Counters for the experiments (queries sent, cache behaviour)."""

    queries_sent: int = 0
    rows_fetched: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    results: int = 0
    prefix_hits: int = 0
    """CN evaluations that borrowed an already-materialized shared prefix."""
    prefix_materializations: int = 0
    """Shared prefixes this run materialized (exactly one per distinct prefix)."""
    cns_pruned: int = 0
    """Candidate networks skipped outright by the global top-k bound."""
    stage_seconds: dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds per pipeline stage, keyed by
    :data:`PIPELINE_STAGES`.  Always recorded — independent of tracing —
    and merged additively, so the service can export per-stage latency
    histograms."""

    def record_stage(self, stage: str, seconds: float) -> None:
        """Accumulate wall-clock time against one pipeline stage."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def merge(self, other: "ExecutionMetrics") -> None:
        """Fold another metrics object into this one (all fields add)."""
        self.queries_sent += other.queries_sent
        self.rows_fetched += other.rows_fetched
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.results += other.results
        self.prefix_hits += other.prefix_hits
        self.prefix_materializations += other.prefix_materializations
        self.cns_pruned += other.cns_pruned
        for stage, seconds in other.stage_seconds.items():
            self.record_stage(stage, seconds)


RESULT_CACHE_CAPACITY = 50_000
"""Entries per suffix/lookup cache: the paper's fixed-size cache."""


class ResultCache:
    """A bounded LRU cache of partial (suffix) results.

    XKeyword "uses a fixed size cache for each keyword query to store
    past results and if the cache gets full, the queries are re-sent to
    the DBMS" — eviction here plays that role.

    One instance lives for one query (its CNs share the lookup cache)
    and is touched only by the thread running that query.
    """

    def __init__(self, capacity: int = RESULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, list[ResultRow]] = OrderedDict()

    def get(self, key: tuple) -> list[ResultRow] | None:
        """Return the cached rows for ``key``, or ``None`` on a miss."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple, value: list[ResultRow]) -> None:
        """Cache ``value`` under ``key``, evicting LRU entries past capacity."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class PrefixSpec:
    """A canonicalized join-step prefix one plan shares with others.

    ``key`` is the machine-independent signature of the first ``length``
    nested-loop steps (relations, stores, join slots and keyword
    filters) with CTSSN role ids renamed to *slots* in order of first
    appearance — two plans whose prefixes canonicalize to the same key
    enumerate exactly the same partial-result rows in the same order,
    so the rows can be materialized once and borrowed by every plan.
    ``roles_by_slot`` maps each canonical slot back to this plan's own
    role id (slot 0 is always the anchor role).
    """

    key: tuple
    length: int
    roles_by_slot: tuple[int, ...]


def prefix_spec(plan: ExecutionPlan, length: int) -> PrefixSpec | None:
    """Canonicalize the first ``length`` join steps of ``plan``.

    Returns ``None`` when the plan has no such prefix (``length`` out of
    range).  The signature captures everything that determines which
    partial rows the prefix enumerates, and in which order:

    * per step: relation name, physical store, and the fragment-role ->
      slot join map (slots rename the plan's role ids canonically);
    * per slot: the TSS label and the witness constraints filtering it
      (equal constraints mean equal admission sets within one query).

    Two plans with equal signatures therefore produce identical
    canonical row sequences, which is what makes cross-CN borrowing
    sound (the RV311 verifier rule re-derives this signature).
    """
    if length < 1 or length > len(plan.steps):
        return None
    ctssn = plan.ctssn
    slots: dict[int, int] = {}

    def slot_of(role: int) -> int:
        if role not in slots:
            slots[role] = len(slots)
        return slots[role]

    slot_of(plan.anchor_role)  # the anchor seeds the loop: always slot 0
    step_signatures = []
    for step in plan.steps[:length]:
        role_map = tuple(sorted(step.piece.role_map))
        step_signatures.append(
            (
                step.relation_name,
                step.store_name,
                tuple(
                    (fragment_role, slot_of(network_role))
                    for fragment_role, network_role in role_map
                ),
            )
        )
    roles_by_slot = tuple(sorted(slots, key=lambda role: slots[role]))
    labels = tuple(ctssn.network.labels[role] for role in roles_by_slot)
    constraints = tuple(
        tuple(
            constraint.sort_key()
            for constraint in sorted(
                ctssn.annotations[role], key=lambda c: c.sort_key()
            )
        )
        for role in roles_by_slot
    )
    key = (tuple(step_signatures), labels, constraints)
    return PrefixSpec(key=key, length=length, roles_by_slot=roles_by_slot)


def assign_shared_prefixes(
    plans: Sequence[ExecutionPlan],
) -> dict[int, PrefixSpec]:
    """Pick, per plan, the longest prefix at least one other plan shares.

    Returns ``{plan index -> PrefixSpec}`` covering only plans that end
    up in a group of two or more: each plan greedily takes its longest
    prefix whose signature appears in at least two plans, then choices
    nobody else made are dropped (materializing a prefix only one plan
    would read is pure overhead).
    """
    specs_by_plan: list[list[PrefixSpec]] = []
    population: Counter = Counter()
    for plan in plans:
        row = []
        for length in range(1, len(plan.steps) + 1):
            spec = prefix_spec(plan, length)
            if spec is not None:
                row.append(spec)
                population[spec.key] += 1
        specs_by_plan.append(row)
    chosen: dict[int, PrefixSpec] = {}
    for index, row in enumerate(specs_by_plan):
        for spec in reversed(row):  # longest shared prefix first
            if population[spec.key] >= 2:
                chosen[index] = spec
                break
    picked = Counter(spec.key for spec in chosen.values())
    return {
        index: spec for index, spec in chosen.items() if picked[spec.key] >= 2
    }


class SharedPrefixTable:
    """Per-query store of materialized shared prefixes.

    Maps a :class:`PrefixSpec` key to the canonical rows (one tuple of
    target-object ids per row, indexed by slot) its prefix enumerates,
    each computed **once per query**.  Touched only by the thread
    running that query.
    """

    def __init__(self) -> None:
        self._rows: dict[tuple, list[tuple[str, ...]]] = {}

    def get_or_materialize(
        self,
        key: tuple,
        producer: Callable[[], list[tuple[str, ...]]],
    ) -> tuple[list[tuple[str, ...]], bool]:
        """Return ``(rows, reused)`` for ``key``, computing at most once.

        The first call for a key runs ``producer`` and returns
        ``(rows, False)``; later calls return ``(rows, True)``.  A
        producer that raises stores nothing, so a later call retries.
        """
        rows = self._rows.get(key)
        if rows is not None:
            return rows, True
        rows = self._rows[key] = list(producer())
        return rows, False

    def __len__(self) -> int:
        return len(self._rows)


class TopKBound:
    """The k-th best (smallest) MTNN size seen across *all* CNs so far.

    Every result of a CTSSN scores exactly ``ctssn.score`` (the source
    CN's size), so a CN whose score is strictly above the current k-th
    best collected score cannot contribute to the top k — the global
    generalization of the paper's per-CN stop condition for Fig 15(a).
    Ties are *not* prunable: the final ranking breaks equal scores by
    canonical key and assignment, so an equal-score CN must still run.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("the top-k bound needs k >= 1")
        self._k = k
        self._worst: list[int] = []  # max-heap via negation

    def add(self, score: int) -> None:
        """Record one collected result's score."""
        if len(self._worst) < self._k:
            heapq.heappush(self._worst, -score)
        elif score < -self._worst[0]:
            heapq.heapreplace(self._worst, -score)

    def bound(self) -> int | None:
        """The k-th best score, or ``None`` until k results exist."""
        if len(self._worst) < self._k:
            return None
        return -self._worst[0]

    def admits(self, score: int) -> bool:
        """Whether a CN with minimum achievable ``score`` can still place."""
        current = self.bound()
        return current is None or score <= current


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution-mode switches (Section 6 variants).

    A plain validated value object (hashable, picklable) with three
    settable fields.  Validation collects *every* invalid field into one
    ``ValueError`` instead of stopping at the first.
    """

    backend: str | None = None
    """One of :data:`BACKENDS`:

    * ``python`` — per-probe nested loops with suffix memoization (the
      oracle the equivalence suite trusts);
    * ``sql`` — each plan compiled to one parameterized SELECT and
      executed inside the DBMS (see :mod:`repro.core.sqlcompile`): the
      paper's one-statement-per-CN model, the default, and the only
      backend the service runs.

    ``None`` (the default) resolves at construction from the
    :data:`REPRO_BACKEND <BACKEND_ENV_VAR>` environment variable, falling
    back to ``sql`` — the variable is how CI runs the whole tier-1 suite
    on the ``python`` oracle too without editing every test."""
    _: KW_ONLY
    strategy: str = STRATEGY_SHARED_PREFIX_PRUNING
    """Cross-CN scheduling strategy (one of :data:`STRATEGIES`):
    ``serial`` evaluates every CN independently, ``shared-prefix`` adds
    once-per-query materialization of canonicalized common join
    prefixes (``python`` backend only — see :attr:`share_prefixes`),
    ``shared-prefix+pruning`` (default) also skips CNs whose
    minimum achievable MTNN size exceeds the global k-th best.  All three
    return identical top-k results — the knob exists for the
    EXPERIMENTS.md ablation."""
    memoize: bool = True
    """Partial-result reuse on the ``python`` backend: suffix memoization
    plus the relation-lookup cache the CNs of one query share.
    ``False`` selects naive nested loops with no reuse of any kind — the
    paper's DISCOVER-style baseline."""

    def __post_init__(self) -> None:
        backend = self.backend or os.environ.get(BACKEND_ENV_VAR) or BACKEND_SQL
        object.__setattr__(self, "backend", backend)  # frozen: resolve once
        errors: list[str] = []
        if backend not in BACKENDS:
            errors.append(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if self.strategy not in STRATEGIES:
            errors.append(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if errors:
            raise ValueError("; ".join(errors))

    @property
    def share_prefixes(self) -> bool:
        """Whether the scheduler materializes shared join prefixes.

        Never on ``sql``: there every CN is one statement, so a borrowed
        prefix adds a statement and saves none.
        """
        return self.backend != BACKEND_SQL and self.strategy != STRATEGY_SERIAL

    @property
    def prune_by_bound(self) -> bool:
        """Whether the scheduler prunes CNs by the global top-k bound."""
        return self.strategy == STRATEGY_SHARED_PREFIX_PRUNING


class CTSSNExecutor:
    """Nested-loop evaluation of one planned candidate TSS network."""

    def __init__(
        self,
        plan: ExecutionPlan,
        stores: dict[str, RelationStore],
        containing: ContainingLists,
        config: ExecutorConfig | None = None,
        metrics: ExecutionMetrics | None = None,
        lookup_cache: ResultCache | None = None,
        span: Span | None = None,
        prefix: PrefixSpec | None = None,
        prefix_table: SharedPrefixTable | None = None,
    ) -> None:
        """
        Args:
            plan: The optimizer's execution plan for one CTSSN.
            stores: Relation stores keyed by store name.
            containing: Keyword containing lists (role admission filters).
            config: Execution-mode switches; optimized+shared by default.
            metrics: Counter sink; a fresh one is created when omitted.
            lookup_cache: Cross-CN shared relation-lookup cache.
            span: Trace span receiving per-relation lookup provenance
                (``None`` when tracing is disabled).
            prefix: This plan's shared join prefix, when the scheduler
                assigned one (see :func:`assign_shared_prefixes`).
            prefix_table: The per-query table the shared prefix is
                materialized into / borrowed from; both ``prefix`` and
                ``prefix_table`` must be set for sharing to engage.
        """
        self.plan = plan
        self.config = config or ExecutorConfig()
        self.metrics = metrics or ExecutionMetrics()
        self.containing = containing
        self.cache = ResultCache(RESULT_CACHE_CAPACITY)
        self._lookup_cache = lookup_cache if self.config.memoize else None
        self._prefix = prefix
        self._prefix_table = prefix_table
        self._span = span
        self._stores = stores
        self.role_filters: dict[int, set[str]] = {
            role: containing.allowed_tos(constraints)
            for role, constraints in plan.ctssn.keyword_roles()
        }
        self._step_roles = [set(step.roles()) for step in plan.steps]

    # ------------------------------------------------------------------
    def run(
        self,
        limit: int | None = None,
        fixed_bindings: ResultRow | None = None,
        prefer: dict[int, set[str]] | None = None,
    ) -> Iterator[ResultRow]:
        """Evaluate the plan.

        Args:
            limit: Stop after this many results (top-k mode).
            fixed_bindings: Roles pinned to specific target objects (the
                on-demand expansion pins the clicked node's role).
            prefer: Per-role preferred target objects — matching rows are
                explored first, which makes the first result reuse as much
                of the presentation graph as possible.
        """
        plan = self.plan
        network = plan.ctssn.network
        fixed = dict(fixed_bindings or {})
        produced = 0

        if (
            self._prefix is not None
            and self._prefix_table is not None
            and not fixed
            and prefer is None
            and network.size > 0
        ):
            yield from self._run_shared_prefix(limit)
            return

        seeds: list[ResultRow] = []
        anchor = plan.anchor_role
        if anchor in fixed:
            seeds.append(dict(fixed))
        elif anchor in self.role_filters:
            for to_id in sorted(self.role_filters[anchor]):
                seed = dict(fixed)
                seed[anchor] = to_id
                if len(set(seed.values())) == len(seed):
                    seeds.append(seed)
        else:
            seeds.append(dict(fixed))

        if network.size == 0:
            for seed in seeds:
                if anchor in seed and self._admit(anchor, seed[anchor]):
                    yield {anchor: seed[anchor]}
                    produced += 1
                    if limit is not None and produced >= limit:
                        return
            return

        needed = self._needed_roles(set(fixed) | {anchor})
        for seed in seeds:
            for suffix in self._evaluate(0, seed, needed, prefer):
                row = {**seed, **suffix}
                if len(set(row.values())) != len(row):
                    continue
                produced += 1
                self.metrics.results += 1
                yield row
                if limit is not None and produced >= limit:
                    return

    # ------------------------------------------------------------------
    def _run_shared_prefix(self, limit: int | None) -> Iterator[ResultRow]:
        """Evaluate via the shared prefix: borrow (or materialize) the
        canonical prefix rows, then run only the remaining join steps."""
        spec = self._prefix
        assert spec is not None and self._prefix_table is not None
        rows, reused = self._prefix_table.get_or_materialize(
            spec.key, lambda: list(self._enumerate_prefix(spec))
        )
        if reused:
            self.metrics.prefix_hits += 1
        else:
            self.metrics.prefix_materializations += 1
        if self._span is not None:
            self._span.annotate(
                prefix_reuse={"reused": reused, "length": spec.length, "rows": len(rows)}
            )
        needed = self._needed_roles({self.plan.anchor_role})
        produced = 0
        for values in rows:
            seed = dict(zip(spec.roles_by_slot, values))
            for suffix in self._evaluate(spec.length, seed, needed, None):
                row = {**seed, **suffix}
                if len(set(row.values())) != len(row):
                    continue
                produced += 1
                self.metrics.results += 1
                yield row
                if limit is not None and produced >= limit:
                    return

    def _enumerate_prefix(self, spec: PrefixSpec) -> Iterator[tuple[str, ...]]:
        """Enumerate the prefix's partial rows in canonical slot order.

        Mirrors :meth:`_run` exactly (same seeds, same nested-loop
        order) but stops after ``spec.length`` steps, so every plan with
        the same prefix signature yields the identical row sequence.
        """
        anchor = self.plan.anchor_role
        needed = self._needed_roles({anchor})
        if anchor in self.role_filters:
            seeds: list[ResultRow] = [
                {anchor: to_id} for to_id in sorted(self.role_filters[anchor])
            ]
        else:
            seeds = [{}]
        for seed in seeds:
            for suffix in self._evaluate(0, seed, needed, None, stop=spec.length):
                row = {**seed, **suffix}
                if len(set(row.values())) != len(row):
                    continue
                yield tuple(row[role] for role in spec.roles_by_slot)

    # ------------------------------------------------------------------
    def _admit(self, role: int, to_id: str) -> bool:
        allowed = self.role_filters.get(role)
        return allowed is None or to_id in allowed

    def _needed_roles(self, seed_roles: set[int]) -> list[tuple[int, ...]]:
        """Roles each suffix's results depend on (memoization keys)."""
        steps = self.plan.steps
        needed: list[tuple[int, ...]] = []
        for index in range(len(steps)):
            later_roles: set[int] = set()
            for step_roles in self._step_roles[index:]:
                later_roles |= step_roles
            earlier: set[int] = set(seed_roles)
            for step_roles in self._step_roles[:index]:
                earlier |= step_roles
            needed.append(tuple(sorted(later_roles & earlier)))
        return needed

    def _evaluate(
        self,
        index: int,
        bindings: ResultRow,
        needed: list[tuple[int, ...]],
        prefer: dict[int, set[str]] | None,
        stop: int | None = None,
    ) -> Iterator[ResultRow]:
        """Suffix results of steps ``index..stop`` (``stop`` defaults to
        the full plan; prefix materialization stops early); injectivity
        is checked against roles inside the suffix only (the caller
        re-checks the full row)."""
        if stop is None:
            stop = len(self.plan.steps)
        if index == stop:
            yield {}
            return
        if self.config.memoize:
            key_roles = [role for role in needed[index] if role in bindings]
            key = (
                index,
                stop,
                tuple((role, bindings[role]) for role in key_roles),
            )
            cached = self.cache.get(key)
            if cached is None:
                self.metrics.cache_misses += 1
                restricted = {role: bindings[role] for role in key_roles}
                cached = list(self._compute(index, restricted, needed, None, stop))
                self.cache.put(key, cached)
            else:
                self.metrics.cache_hits += 1
            suffixes = cached
            if prefer:
                suffixes = sorted(cached, key=lambda s: self._prefer_rank(s, prefer))
            bound_values = set(bindings.values())
            for suffix in suffixes:
                # Suffix roles are disjoint from bound roles by
                # construction; only value collisions can arise.
                if all(value not in bound_values for value in suffix.values()):
                    yield suffix
            return
        yield from self._compute(index, bindings, needed, prefer, stop)

    def _compute(
        self,
        index: int,
        bindings: ResultRow,
        needed: list[tuple[int, ...]],
        prefer: dict[int, set[str]] | None,
        stop: int | None = None,
    ) -> Iterator[ResultRow]:
        step = self.plan.steps[index]
        bound_roles = [role for role in step.roles() if role in bindings]
        lookup_bindings = {
            step.column_of_role(role): bindings[role] for role in bound_roles
        }
        rows = self._lookup(step, lookup_bindings)
        candidates = []
        for row in rows:
            assignment: ResultRow = {}
            valid = True
            for fragment_role, network_role in step.piece.role_map:
                value = row[fragment_role]
                if network_role in bindings:
                    if bindings[network_role] != value:
                        valid = False
                        break
                    continue
                if not self._admit(network_role, value):
                    valid = False
                    break
                if value in assignment.values() or value in bindings.values():
                    valid = False
                    break
                assignment[network_role] = value
            if valid:
                candidates.append(assignment)
        # Canonical enumeration order: every level iterates its new-role
        # assignments sorted by value (roles in ascending id order), so
        # the whole run enumerates rows lexicographically in binding
        # order regardless of physical row order.  This is what lets the
        # SQL backend reproduce the exact same top-k subset with an
        # ORDER BY over the binding-order columns.
        candidates.sort(key=lambda a: tuple(a[role] for role in sorted(a)))
        if prefer:
            # Stable: preference groups keep the canonical order inside.
            candidates.sort(key=lambda a: self._prefer_rank(a, prefer))
        seen: set[tuple] = set()
        for assignment in candidates:
            dedupe = tuple(sorted(assignment.items()))
            if dedupe in seen:
                continue  # parallel rows binding the same new roles
            seen.add(dedupe)
            inner = dict(bindings)
            inner.update(assignment)
            for suffix in self._evaluate(index + 1, inner, needed, prefer, stop):
                merged = dict(assignment)
                conflict = False
                for role, value in suffix.items():
                    if value in merged.values():
                        conflict = True
                        break
                    merged[role] = value
                if not conflict:
                    yield merged

    def _lookup(
        self, step: PlanStep, bindings: dict[str, str]
    ) -> list[tuple[str, ...]]:
        """One focused query for ``step`` (or a lookup-cache replay).

        The lookup cache implements the paper's reuse of common
        subexpressions *across* candidate networks: two CNs probing the
        same relation with the same junction ids share the result.
        """
        relation_name = step.relation_name
        key = None
        if self._lookup_cache is not None:
            key = (relation_name, tuple(sorted(bindings.items())))
            cached = self._lookup_cache.get(key)
            if cached is not None:
                self.metrics.cache_hits += 1
                if self._span is not None:
                    self._span.record_lookup(relation_name, len(cached), True)
                return cached  # type: ignore[return-value]
        self.metrics.queries_sent += 1
        rows = self._stores[step.store_name].lookup(step.piece.fragment, bindings)
        self.metrics.rows_fetched += len(rows)
        if key is not None:
            self._lookup_cache.put(key, rows)  # type: ignore[arg-type]
        if self._span is not None:
            self._span.record_lookup(relation_name, len(rows), False)
        return rows

    @staticmethod
    def _prefer_rank(assignment: ResultRow, prefer: dict[int, set[str]]) -> int:
        """Fewer non-preferred bindings sort first (expansion minimality)."""
        penalty = 0
        for role, value in assignment.items():
            preferred = prefer.get(role)
            if preferred is not None and value not in preferred:
                penalty += 1
        return penalty


# ----------------------------------------------------------------------
# Scheduling: one work unit per CN (run in rank order by ``core/engine.py``)
# ----------------------------------------------------------------------
@dataclass
class PlannedCN:
    """One candidate network, planned, awaiting evaluation.

    Its ``cn`` trace span opens at planning and closes when the CN
    reports to :meth:`QueryExecution.unit_done`.
    """

    ctssn: CTSSN
    plan: ExecutionPlan
    span: Span
    prefix: PrefixSpec | None = None


@dataclass
class QueryExecution:
    """What the work units of one query share: one :class:`TopKBound`
    (a result collected from any CN prunes every other), one
    relation-lookup cache, one :class:`SharedPrefixTable` (every size
    class borrows from it)."""

    query: KeywordQuery
    containing: ContainingLists
    config: ExecutorConfig
    limit: int | None
    trace: QueryTrace | NullTrace
    bound: TopKBound | None = None
    emitter: _StreamEmitter | None = None
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    collected: list[MTTON] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.lookup_cache = ResultCache(RESULT_CACHE_CAPACITY)
        self.prefix_table = (
            SharedPrefixTable() if self.config.share_prefixes else None
        )

    @property
    def cancelled(self) -> bool:
        """True once the stream's consumer asked the run to stop."""
        return self.emitter is not None and self.emitter.cancelled

    def unit_done(
        self,
        ctssn: CTSSN,
        span: Span,
        mttons: list[MTTON],
        skipped: dict | None,
        metrics: ExecutionMetrics,
    ) -> None:
        """Fold one finished CN into the shared results and metrics,
        close its ``cn`` span and signal the emitter.

        ``skipped`` holds the ``cn``-span attributes of a unit that never
        ran (pruned / cancelled).
        """
        self.collected.extend(mttons)
        self.metrics.merge(metrics)
        span.annotate(**(skipped or {}), actual_results=len(mttons))
        span.finish()
        if self.emitter is not None:
            self.emitter.cn_done(ctssn.score)
