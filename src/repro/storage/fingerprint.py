"""Stable content fingerprints for loaded databases.

The fingerprint is the database's load-time identity: what ``/healthz``
and the ``serve`` banner print so an operator can tell which data a
process is serving.  It plays no part in cache validity, and live
mutations do not change it: each mutation advances the database's
epoch (``LoadedDatabase.epoch``), the one number the service's
cross-query cache validates against.

The fingerprint digests what the load stage materialized — catalog
identity, the loaded decompositions, and the row population of every
table — rather than object identity, so two loads of the same XML
graph fingerprint the same, while loading a different XML graph (or the
same graph re-generated with a new seed) changes the digest.
"""

from __future__ import annotations

import hashlib

from .decomposer import LoadedDatabase


def database_fingerprint(loaded: LoadedDatabase) -> str:
    """A hex digest identifying this database's loaded content.

    Digests, in order: the catalog name, the target-object graph's
    population (TO count + edge-instance count), and every table's name
    and row count.  Table row counts cover the master index, BLOBs and
    each decomposition's connection relations, so re-loading different
    data — even with identical schema — yields a different digest.
    """
    hasher = hashlib.sha256()
    hasher.update(loaded.catalog.name.encode())
    hasher.update(str(loaded.to_graph.target_object_count).encode())
    hasher.update(str(loaded.to_graph.instance_count).encode())
    for name in sorted(loaded.stores):
        hasher.update(name.encode())
    for table in sorted(loaded.database.table_names()):
        hasher.update(table.encode())
        hasher.update(str(loaded.database.row_count(table)).encode())
    return hasher.hexdigest()
