"""The paper's primary contribution: the XKeyword query pipeline."""

from .cn_generator import CandidateNetwork, CNGenerator, schema_edge_id
from .ctssn import (
    CTSSN,
    ReductionError,
    WitnessConstraint,
    max_ctssn_size,
    reduce_to_ctssn,
)
from .engine import SearchResult, XKeyword
from .execution import (
    BACKEND_PYTHON,
    BACKEND_SQL,
    BACKENDS,
    PIPELINE_STAGES,
    STRATEGIES,
    CTSSNExecutor,
    ExecutionMetrics,
    ExecutorConfig,
    PrefixSpec,
    ResultCache,
    ResultRow,
    SharedPrefixTable,
    TopKBound,
    assign_shared_prefixes,
    prefix_spec,
)
from .expansion import OnDemandNavigator, open_navigator
from .matching import ContainingLists
from .optimizer import Optimizer, PlanningError
from .plans import ExecutionPlan, PlanStep
from .presentation import DisplayNode, PresentationGraph
from .query import KeywordQuery
from .results import MTNN, MTTON, MTTONEdge, materialize, node_network
from .sqlcompile import (
    CompiledQuery,
    SQLCTSSNExecutor,
    compile_plan,
    render_sql,
)
from .streaming import ResultStream, StreamCancelledError, StreamCursor

__all__ = [
    "BACKEND_PYTHON",
    "BACKEND_SQL",
    "BACKENDS",
    "CNGenerator",
    "CompiledQuery",
    "CTSSN",
    "CTSSNExecutor",
    "CandidateNetwork",
    "ContainingLists",
    "ExecutionMetrics",
    "ExecutionPlan",
    "ExecutorConfig",
    "KeywordQuery",
    "MTNN",
    "MTTON",
    "MTTONEdge",
    "OnDemandNavigator",
    "PIPELINE_STAGES",
    "Optimizer",
    "PresentationGraph",
    "DisplayNode",
    "PlanStep",
    "PlanningError",
    "PrefixSpec",
    "ReductionError",
    "ResultCache",
    "ResultRow",
    "ResultStream",
    "StreamCancelledError",
    "StreamCursor",
    "STRATEGIES",
    "SQLCTSSNExecutor",
    "SearchResult",
    "SharedPrefixTable",
    "TopKBound",
    "WitnessConstraint",
    "XKeyword",
    "assign_shared_prefixes",
    "compile_plan",
    "materialize",
    "prefix_spec",
    "max_ctssn_size",
    "node_network",
    "open_navigator",
    "reduce_to_ctssn",
    "render_sql",
    "schema_edge_id",
]
