"""Containment and overlap structure of hypergraphs: line-graph measures,
null models, a nested random generator, and hyperedge contagion.

``import hypernest`` is cheap: it registers each submodule in
``sys.modules`` as a lazy module, which executes on its first attribute
use, so a program (or a ``hypernest`` command) loads only the modules it
runs. The public names below are served from their submodules on first
use."""

import importlib.util
import sys

__version__ = "0.1.0"

# the contagion variants and seed strategies of ``dynamics``, defined here so
# that the command-line parser offers them without executing the engine
VARIANTS = ("strict", "non-strict", "empirical-adjacent", "threshold")
STRATEGIES = ("uniform", "size-biased", "inverse-size-biased", "smallest-first")

# submodule -> the public names it defines; the one list of the package's names
_EXPORTS = {
    "dagpaths": ("rooted_heights", "transitive_reduction"),
    "dynamics": ("DynamicsConfig", "build_influence"),
    "experiments": ("ExperimentGrid", "cell_proportions", "randomized_comparison",
                    "run_experiment", "summarize"),
    "hypergraph": ("FormatError", "Hypergraph", "filter_by_size", "ingest_simplex",
                   "is_connected", "largest_connected_component", "load_plain",
                   "load_simplex_dataset", "parse_plain", "preprocess", "projected_density",
                   "write_plain"),
    "linegraph": ("HyperedgeDag", "OverlapGraph", "adjacent_layer_dag", "build_encapsulation_dag",
                  "build_overlap_graph", "encapsulation_counts"),
    "randomize": ("layer_randomize", "layer_samples", "retention_report"),
    "rng": ("spawn_rng",),
    "rnhm": ("GenerationError", "RnhmParams", "RnhmSample", "generate", "rewire_edge"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)

for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
