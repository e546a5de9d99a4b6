"""Best-fit tropical polytopes for samples of equidistant phylogenetic trees.

The package covers the full pipeline: tropical linear combinations, sectors
and the tropical metric (``tropical``), Newick ingestion, ultrametric vectors
and the projection onto tree space (``treespace``), the polytope objective
with its analytic subgradient and the projected subgradient fit (``pca``),
model persistence (``model``), and a command-line front end (``cli``).
"""

__version__ = "0.1.0"

from .tropical import (
    NEG_INF,
    canonicalize,
    sector_of,
    torus_equal,
    trop_combine,
    trop_dist,
)
from .treespace import (
    NewickError,
    PhyloTree,
    cophenetic_vector,
    default_leaf_names,
    is_ultrametric,
    leaf_count_from_dim,
    load_newick_file,
    pair_index,
    pair_order,
    parse_newick,
    project_to_treespace,
    random_ultrametrics,
    reconstruct_tree,
    topology_signature,
    ultrametric_violation,
)
from .pca import (
    FitConfig,
    FitTrace,
    TropicalPolytope,
    baseline_random_search,
    evaluate,
    fit,
    objective,
    project_to_polytope,
    subgradient,
)
from .model import Model, load_model, save_model

__all__ = [
    "NEG_INF",
    "canonicalize",
    "sector_of",
    "torus_equal",
    "trop_combine",
    "trop_dist",
    "NewickError",
    "PhyloTree",
    "cophenetic_vector",
    "default_leaf_names",
    "is_ultrametric",
    "leaf_count_from_dim",
    "load_newick_file",
    "pair_index",
    "pair_order",
    "parse_newick",
    "project_to_treespace",
    "random_ultrametrics",
    "reconstruct_tree",
    "topology_signature",
    "ultrametric_violation",
    "FitConfig",
    "FitTrace",
    "TropicalPolytope",
    "baseline_random_search",
    "evaluate",
    "fit",
    "objective",
    "project_to_polytope",
    "subgradient",
    "Model",
    "load_model",
    "save_model",
]
