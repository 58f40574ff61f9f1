"""Analysis tools: figure tables, relation comparison, derivation reports."""

from .compare import ComparisonReport, Ordering, compare_relations, concurrency_score
from .derive import FigureReport, derive_commutativity_figure, derive_figure
from .report import generate_report
from .graph import (
    conflict_graph,
    conflict_serialization_order,
    timestamp_order_consistent,
    topological_order,
)
from .tables import render_grid, render_relation, render_schema_relation, schema_of
from .timeline import render_timeline

__all__ = [
    "render_relation",
    "render_schema_relation",
    "render_grid",
    "render_timeline",
    "conflict_graph",
    "topological_order",
    "conflict_serialization_order",
    "timestamp_order_consistent",
    "schema_of",
    "Ordering",
    "ComparisonReport",
    "compare_relations",
    "concurrency_score",
    "FigureReport",
    "derive_figure",
    "derive_commutativity_figure",
    "generate_report",
]
