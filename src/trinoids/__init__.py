"""Classification and verification tools for catenoid-cousin end data.

Modules by task:

* params        -- parameter conventions and conversions
* classify      -- tetrahedron admissibility of angle triples
* surfaces      -- closed-form surface evaluators and the half-space-to-ball map
* weierstrass   -- numerical evaluation of immersions from (g, omega)
* lines         -- oriented lines, plain 3-vector helpers and row kernels
* constellation -- the two line constellations of an admissible triple
* asymptotics   -- conjugate-end sampling, helicoid fitting, decay checks
* emit          -- deterministic OBJ, CSV and JSON writers
* config        -- run configuration of the command line
* cli           -- command-line front end
"""

from .params import (
    PitchConvention,
    bobenko_delta,
    bps_to_lambda,
    bryant_mu_to_lambda,
    lambda_of_phi,
    phi_of_lambda,
    ray_distance_h,
    reduced_angle,
    total_curvature,
)
from .classify import Membership, TripleClass, TripleTag, classify_triple

__version__ = "0.1.0"

__all__ = [
    "Membership",
    "PitchConvention",
    "TripleClass",
    "TripleTag",
    "bobenko_delta",
    "bps_to_lambda",
    "bryant_mu_to_lambda",
    "classify_triple",
    "lambda_of_phi",
    "phi_of_lambda",
    "ray_distance_h",
    "reduced_angle",
    "total_curvature",
    "__version__",
]
