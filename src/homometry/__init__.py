"""Exact-arithmetic covariograms, homometric lattice-convex sets, and tilings."""

from .classify2d import SearchConfig, classify, unimodular_equivalent
from .constructions import (
    HomometricPair,
    cartesian_product,
    counterexample_ab,
    counterexample_bc,
    generalized_family,
    irregular_examples,
    parabola_construction,
    planar_family,
)
from .lattice import Lattice
from .pointset import (
    Covariogram,
    PointSet,
    centrally_symmetric,
    covariogram,
    direct_sum,
    homometric,
    intrinsically_lattice_convex,
    is_direct_sum,
    is_lattice_convex,
    minkowski_sum,
    trivially_homometric,
)
from .polytope import Polytope, hull
from .tiling import (
    Tiling,
    WSetResult,
    check_abc,
    dirichlet_tile,
    enumerate_tiles_tq,
    lattice_width,
    verify_tiling,
    w_set,
    width_of,
)

__all__ = [
    "Covariogram",
    "HomometricPair",
    "Lattice",
    "PointSet",
    "Polytope",
    "SearchConfig",
    "Tiling",
    "WSetResult",
    "cartesian_product",
    "centrally_symmetric",
    "check_abc",
    "classify",
    "counterexample_ab",
    "counterexample_bc",
    "covariogram",
    "direct_sum",
    "dirichlet_tile",
    "enumerate_tiles_tq",
    "generalized_family",
    "homometric",
    "hull",
    "intrinsically_lattice_convex",
    "irregular_examples",
    "is_direct_sum",
    "is_lattice_convex",
    "lattice_width",
    "minkowski_sum",
    "parabola_construction",
    "planar_family",
    "trivially_homometric",
    "unimodular_equivalent",
    "verify_tiling",
    "w_set",
    "width_of",
]

__version__ = "0.1.0"
