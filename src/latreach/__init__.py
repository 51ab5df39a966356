"""Exact and fast reachability analysis for small CNNs via face-lattice polytopes."""

from .lattice import (FaceLattice, LatticeSet, Hyperplane, LatticeError,
                      ZERO_TOL, build_box_lattice, affine_transform,
                      classify_vertices, split_by_hyperplane, eliminate_dims,
                      validate_lattice, validate_set, set_to_dict,
                      set_from_dict)
from .layers import (PoolSpec, NeuronSelection, affine_layer_reach,
                     relu_layer_reach, maxpool_pool_reach,
                     maxpool_layer_reach)
from .model import (LayerDesc, Network, InputSpec, ModelError, load_model,
                    forward, gradient, write_flrw)
from .engine import (ReachConfig, ReachResult, select_neurons, reach,
                     backtrack, result_to_dict, sets_from_dict)
from .cli import Verdict, verify, falsify

__version__ = "0.1.0"

__all__ = [
    "FaceLattice", "LatticeSet", "Hyperplane", "LatticeError", "ZERO_TOL",
    "build_box_lattice", "affine_transform", "classify_vertices",
    "split_by_hyperplane", "eliminate_dims", "validate_lattice",
    "validate_set", "set_to_dict", "set_from_dict", "PoolSpec",
    "NeuronSelection", "affine_layer_reach", "relu_layer_reach",
    "maxpool_pool_reach", "maxpool_layer_reach", "LayerDesc", "Network",
    "InputSpec", "ModelError", "load_model", "forward", "gradient",
    "write_flrw", "ReachConfig", "ReachResult", "select_neurons", "reach",
    "backtrack", "result_to_dict", "sets_from_dict", "Verdict", "verify",
    "falsify",
]
