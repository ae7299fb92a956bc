"""The load stage (paper Section 4, Figure 7 left half).

The decomposer inputs the schema graph, the TSS graph and the XML graph
and creates: the master index, the statistics, the target-object BLOBs,
the target-object graph's tables and, from those tables, the connection
relations of one or more decompositions.  The result, a
:class:`LoadedDatabase`, is everything the query-processing stage needs.
It lives in a private in-memory database for as long as the process
that loaded it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..decomposition.strategies import Decomposition
from ..schema.catalogs import Catalog
from ..schema.validate import check_conformance
from ..xmlgraph.model import XMLGraph
from .blobs import BlobStore
from .database import Database
from .master_index import MasterIndex
from .persistence import TargetObjectTables, store_metadata
from .relations import RelationStore
from .statistics import Statistics
from .target_objects import build_target_object_graph


@dataclass
class LoadReport:
    """What the load stage built, and how long each part took."""

    target_objects: int = 0
    edge_instances: int = 0
    index_entries: int = 0
    blobs: int = 0
    relation_rows: dict[str, dict[str, int]] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)

    def total_relation_rows(self, decomposition: str) -> int:
        """Rows materialized for one decomposition, over all relations."""
        return sum(self.relation_rows.get(decomposition, {}).values())


@dataclass
class LoadedDatabase:
    """A fully loaded XKeyword database, ready for query processing.

    ``to_graph`` is a read-only view of the target-object graph's
    tables, its only live copy: no Python object holds TO membership or
    edge instances.  ``graph`` is the XML graph it was loaded from; the
    update subsystem mutates it in step with the tables.
    """

    catalog: Catalog
    database: Database
    graph: XMLGraph
    to_graph: TargetObjectTables
    master_index: MasterIndex
    blobs: BlobStore
    statistics: Statistics
    stores: dict[str, RelationStore]
    report: LoadReport
    epoch: int = 0
    """Mutation counter; the update subsystem bumps it per mutation."""
    index_tags: bool = False
    """Whether the master index also indexes element tags."""

    def store(self, decomposition_name: str) -> RelationStore:
        """The relation store of one loaded decomposition."""
        try:
            return self.stores[decomposition_name]
        except KeyError:
            raise KeyError(
                f"decomposition {decomposition_name!r} not loaded; "
                f"available: {sorted(self.stores)}"
            ) from None

    def fingerprint(self) -> str:
        """Content digest of the loaded data (see :mod:`.fingerprint`)."""
        from .fingerprint import database_fingerprint

        return database_fingerprint(self)

    def add_decomposition(self, decomposition: Decomposition) -> RelationStore:
        """Load one more decomposition into the same database.

        Records its row counts and build seconds in :attr:`report`
        (``relations:<name>``); :func:`load_database` loads every
        decomposition through here.
        """
        started = time.perf_counter()
        store = RelationStore(self.database, decomposition)
        store.create()
        self.report.relation_rows[decomposition.name] = store.load()
        self.report.seconds[f"relations:{decomposition.name}"] = (
            time.perf_counter() - started
        )
        self.stores[decomposition.name] = store
        return store


def load_database(
    graph: XMLGraph,
    catalog: Catalog,
    decompositions: list[Decomposition],
    validate: bool = True,
    index_tags: bool = False,
) -> LoadedDatabase:
    """Run the full load stage.

    Args:
        graph: The XML graph to load.
        catalog: Schema + TSS graph + keyword surface.
        decompositions: Decompositions whose connection relations to
            materialize (several may share one database, as Section 6's
            combined execution requires).
        validate: Check schema conformance first.
        index_tags: Also index element tags as keywords.
    """
    report = LoadReport()
    database = Database()
    if validate:
        check_conformance(graph, catalog.schema)

    started = time.perf_counter()
    to_graph = build_target_object_graph(graph, catalog.tss)
    report.seconds["target_objects"] = time.perf_counter() - started
    report.target_objects = to_graph.target_object_count
    report.edge_instances = to_graph.instance_count

    started = time.perf_counter()
    store_metadata(database, to_graph)
    report.seconds["metadata"] = time.perf_counter() - started

    started = time.perf_counter()
    master_index = MasterIndex(database)
    master_index.create()
    report.index_entries = master_index.load(
        graph, to_graph, catalog.text_nodes, index_tags=index_tags
    )
    report.seconds["master_index"] = time.perf_counter() - started

    started = time.perf_counter()
    blobs = BlobStore(database)
    blobs.create()
    report.blobs = blobs.load(graph, to_graph)
    report.seconds["blobs"] = time.perf_counter() - started

    # From here on the tables are the TO graph's only copy.
    tables = TargetObjectTables(database, catalog.tss)
    loaded = LoadedDatabase(
        catalog=catalog,
        database=database,
        graph=graph,
        to_graph=tables,
        master_index=master_index,
        blobs=blobs,
        statistics=Statistics.from_target_object_graph(tables),
        stores={},
        report=report,
        index_tags=index_tags,
    )
    for decomposition in decompositions:
        loaded.add_decomposition(decomposition)
    return loaded

