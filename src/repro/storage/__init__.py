"""Relational storage substrate (load stage of the paper's Figure 7)."""

from .blobs import BlobStore
from .database import Database, quote_identifier
from .decomposer import LoadReport, LoadedDatabase, load_database
from .fingerprint import VersionVector, database_fingerprint
from .master_index import IndexEntry, MasterIndex, tokenize
from .persistence import (
    apply_metadata_delta,
    has_metadata,
    load_metadata,
    persist_metadata,
    reopen_database,
)
from .relations import PhysicalTable, RelationStore, fragment_instances
from .statistics import Statistics
from .target_objects import EdgeInstance, TargetObjectGraph, build_target_object_graph

__all__ = [
    "BlobStore",
    "Database",
    "EdgeInstance",
    "IndexEntry",
    "LoadReport",
    "LoadedDatabase",
    "MasterIndex",
    "PhysicalTable",
    "RelationStore",
    "Statistics",
    "TargetObjectGraph",
    "VersionVector",
    "apply_metadata_delta",
    "build_target_object_graph",
    "database_fingerprint",
    "fragment_instances",
    "has_metadata",
    "load_database",
    "load_metadata",
    "persist_metadata",
    "reopen_database",
    "quote_identifier",
    "tokenize",
]
