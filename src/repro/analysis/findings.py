"""Findings: what every checker reports and how it is rendered.

A finding pins one rule violation to a ``file:line`` location.  Rule ids
are stable (``RA...`` for the code lint, ``RV...`` for the domain
verifier) so fixes can reference them in commit messages and suppression
comments can target them precisely.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def sort_key(self) -> tuple[str, int, str]:
        return (self.path, self.line, self.rule)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form for ``--output json`` and CI tooling."""
        return asdict(self)


# The rule catalogue.  Level 1 (RA...) is the AST lint run by
# ``python -m repro.analysis``; Level 2 (RV...) is the domain verifier
# (analysis/plans.py) raised at runtime under ``debug_verify``.
RULES: dict[str, str] = {
    # --- layering -----------------------------------------------------
    "RA001": "import breaks the package layering DAG "
             "(xmlgraph/schema -> decomposition -> storage -> core -> "
             "analysis -> service)",
    "RA002": "subpackage imports the repro package root (hides layering)",
    # --- lock discipline / concurrency hygiene ------------------------
    "RA101": "attribute declared '# guarded by: self.<lock>' accessed "
             "outside a 'with self.<lock>' block",
    "RA102": "callback/hook invocation or I/O while holding a lock",
    "RA103": "time.sleep while holding a lock",
    "RA104": "thread created without daemon=True",
    # --- interprocedural lock graph (analysis/lockgraph.py) ------------
    "RA105": "lock-order inversion: the project-wide acquisition graph "
             "contains a cycle (potential deadlock)",
    "RA106": "write lock acquired while a read lock on the same "
             "ReadWriteLock may be held (self-deadlock under writer "
             "preference)",
    "RA107": "blocking call (sqlite commit/execute, socket I/O, "
             "Event.wait, submit().result()) reachable while holding a "
             "lock; allowlist with '# analysis: blocking-ok[reason]'",
    "RA108": "attribute declared '# guarded by: self.<rwlock> [rw]' "
             "accessed outside a read/write-lock region (checked "
             "across intra-class call sites)",
    # --- general correctness ------------------------------------------
    "RA201": "mutable default argument",
    "RA202": "container mutated while being iterated",
    "RA203": "value-type dataclass in xmlgraph.model missing "
             "frozen=True/slots=True",
    "RA204": "'<name> or <Class>(...)' default where <Class> defines "
             "__len__/__bool__ (an empty instance passed in is replaced)",
    # --- domain invariants (runtime, debug_verify) --------------------
    "RV301": "candidate/TSS network is not a tree (cycle, self-loop or "
             "disconnected roles)",
    "RV302": "keyword coverage is not total (some query keyword is "
             "unassigned)",
    "RV303": "duplicate keyword across roles (violates exact-subset "
             "semantics / subsumption pruning)",
    "RV304": "free leaf target object (unannotated leaf role; violates "
             "MTNN minimality)",
    "RV305": "CTSSN label or edge does not exist in the TSS graph (or "
             "edge endpoints disagree with it)",
    "RV306": "plan does not cover every network edge",
    "RV307": "plan step joins on no previously bound role (disconnected "
             "nested loop)",
    "RV308": "plan step's relation is not materialized by its store's "
             "decomposition",
    "RV309": "plan step's role map is not a valid fragment embedding",
    "RV310": "plan anchor role is invalid or not bound by the first step",
    "RV311": "shared-prefix spec does not canonicalize to its plan prefix",
    # --- runtime lockset sanitizer (analysis/sanitizer.py) -------------
    "RS401": "dynamic lock-order inversion: observed acquisition order "
             "conflicts with the merged static+dynamic lock graph",
    "RS402": "read->write upgrade observed on a ReadWriteLock at "
             "runtime (self-deadlock under writer preference)",
    "RS403": "guarded attribute accessed at runtime with an empty "
             "lockset (Eraser-style lockset violation)",
}
