"""Best-fit tropical polytopes for samples of equidistant phylogenetic trees.

The package covers the full pipeline: max-plus arithmetic and the tropical
metric (``tropical``), Newick ingestion, ultrametric vectors and the
projection onto tree space (``treespace``), the polytope objective with its
analytic subgradients and the projected subgradient fit (``pca``), model
persistence (``model``), and a command-line front end (``cli``).
"""

__version__ = "0.1.0"

from .tropical import (
    NEG_INF,
    canonicalize,
    sector_of,
    torus_equal,
    trop_add,
    trop_combine,
    trop_dist,
    trop_mul,
)
from .treespace import (
    NewickError,
    Node,
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
    random_ultrametric,
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
    fit,
    grad_dist,
    jacobian_w,
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
    "trop_add",
    "trop_combine",
    "trop_dist",
    "trop_mul",
    "NewickError",
    "Node",
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
    "random_ultrametric",
    "random_ultrametrics",
    "reconstruct_tree",
    "topology_signature",
    "ultrametric_violation",
    "FitConfig",
    "FitTrace",
    "TropicalPolytope",
    "baseline_random_search",
    "fit",
    "grad_dist",
    "jacobian_w",
    "objective",
    "project_to_polytope",
    "subgradient",
    "Model",
    "load_model",
    "save_model",
]
