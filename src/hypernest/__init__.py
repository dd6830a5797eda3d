"""Containment and overlap structure of hypergraphs: line-graph measures,
null models, a nested random generator, and hyperedge contagion."""

__version__ = "0.1.0"

from .dagpaths import RootedHeightReport, rooted_heights, transitive_reduction
from .dynamics import DynamicsConfig, Trajectory, select_seeds
from .experiments import (
    ExperimentGrid,
    RunRecord,
    prepare_dynamics,
    randomized_comparison,
    run_dynamics,
    run_experiment,
    summarize,
)
from .hypergraph import (
    DatasetStats,
    FormatError,
    Hypergraph,
    filter_by_size,
    ingest_simplex,
    is_connected,
    largest_connected_component,
    load_plain,
    load_simplex_dataset,
    parse_plain,
    preprocess,
    projected_density,
    write_plain,
)
from .linegraph import (
    EncapsulationCounts,
    HyperedgeDag,
    OverlapGraph,
    adjacent_layer_dag,
    build_encapsulation_dag,
    build_overlap_graph,
    encapsulation_counts,
)
from .randomize import LayerRandomizationReport, layer_randomize, layer_samples, retention_report
from .rng import spawn_rng
from .rnhm import GenerationError, RnhmParams, RnhmSample, generate, rewire_edge

__all__ = [
    "DatasetStats",
    "DynamicsConfig",
    "EncapsulationCounts",
    "ExperimentGrid",
    "FormatError",
    "GenerationError",
    "Hypergraph",
    "HyperedgeDag",
    "LayerRandomizationReport",
    "OverlapGraph",
    "RnhmParams",
    "RnhmSample",
    "RootedHeightReport",
    "RunRecord",
    "Trajectory",
    "adjacent_layer_dag",
    "build_encapsulation_dag",
    "build_overlap_graph",
    "encapsulation_counts",
    "filter_by_size",
    "generate",
    "ingest_simplex",
    "is_connected",
    "largest_connected_component",
    "layer_randomize",
    "layer_samples",
    "load_plain",
    "load_simplex_dataset",
    "parse_plain",
    "prepare_dynamics",
    "preprocess",
    "projected_density",
    "randomized_comparison",
    "retention_report",
    "rewire_edge",
    "rooted_heights",
    "run_dynamics",
    "run_experiment",
    "select_seeds",
    "spawn_rng",
    "summarize",
    "transitive_reduction",
    "write_plain",
]
