"""Relational storage substrate (load stage of the paper's Figure 7)."""

from .blobs import BlobStore
from .database import Database, quote_identifier
from .decomposer import LoadReport, LoadedDatabase, load_database
from .fingerprint import database_fingerprint
from .master_index import IndexEntry, MasterIndex, tokenize
from .persistence import TargetObjectTables, apply_metadata_delta, store_metadata
from .relations import PhysicalTable, RelationStore
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
    "TargetObjectTables",
    "apply_metadata_delta",
    "build_target_object_graph",
    "database_fingerprint",
    "load_database",
    "quote_identifier",
    "store_metadata",
    "tokenize",
]
