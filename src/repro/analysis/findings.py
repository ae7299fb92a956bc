"""Findings: what every checker reports and how it is rendered.

A finding pins one rule violation to a ``file:line`` location.  Rule ids
are stable (``RA...`` for the code lint, ``RV...`` for the domain
verifier) so fixes can reference them in commit messages and suppression
comments can target them precisely.
"""

from __future__ import annotations

from dataclasses import dataclass


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


# The rule catalogue.  Level 1 (RA...) is the AST lint run by
# ``python -m repro.analysis``; Level 2 (RV...) is the domain verifier
# (analysis/plans.py) raised at runtime under ``debug_verify``.
RULES: dict[str, str] = {
    # --- layering -----------------------------------------------------
    "RA001": "import breaks the package layering DAG "
             "(xmlgraph/schema -> decomposition -> storage -> core -> "
             "analysis -> service)",
    "RA002": "subpackage imports the repro package root (hides layering)",
    # --- lock graph (analysis/lockgraph.py) ----------------------------
    "RA101": "attribute declared '# guarded by: self.<lock>' (plain, "
             "[writes] or [rw]) accessed outside its lock, where held "
             "means held locally or by every intra-class caller",
    "RA105": "lock-order inversion: the project-wide acquisition graph "
             "contains a cycle (potential deadlock)",
    "RA107": "blocking call (sqlite commit/execute, socket I/O, sleep, "
             "print/open/input, Event.wait, submit().result()) reachable "
             "while holding a lock; allowlist with "
             "'# analysis: blocking-ok[reason]'",
    # --- general correctness ------------------------------------------
    "RA104": "thread created without daemon=True",
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
    # --- runtime lock sanitizer (analysis/sanitizer.py) ----------------
    "RS401": "dynamic lock-order inversion: observed acquisition order "
             "conflicts with the merged static+dynamic lock graph",
    "RS402": "read->write upgrade observed on a ReadWriteLock at "
             "runtime (self-deadlock under writer preference)",
}
