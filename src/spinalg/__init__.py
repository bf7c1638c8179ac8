"""Exact local algebra of roots of the log-canonical bundle on nodal curves.

The package computes, over a prime field, the modules attached to a
node where an r-th root sheaf has local index l: their products,
symmetric powers, power maps between twist tiers, automorphisms, and
the boundary-stratum combinatorics of the dual graphs that carry them.
Everything is exact integer arithmetic; an independent covering-chart
model cross-checks the presentation formulas.
"""
from .dualgraph import (
    DualGraph,
    deformation_dimension,
    enumerate_assignments,
    graph_genus,
    spin_chi,
    stability_check,
    vertex_degree_test,
)
from .field import FieldConfig, default_prime, is_prime
from .modules import (
    GeneratorMap,
    LinearSource,
    ModuleElement,
    ModulePresentation,
    RelationViolation,
    SymPowerSource,
    TensorSource,
    check_well_defined,
    cokernel_length,
    make_module,
    monomial_basis,
)
from .oracle import (
    SpinChart,
    UpstairsElement,
    lift_element,
    lower_element,
    oracle_product_images,
    oracle_sym_power_images,
    symbol_exponent,
)
from .products import (
    AlgebraWindow,
    AutomorphismGroup,
    algebra_window,
    automorphisms,
    compatibility_check,
    dual_pairing,
    power_map,
    product_map,
    sym_power_map,
    tier_module,
)
from .resolution import resolution_exact_check
from .ring import LaurentElement, LaurentRing, NodeRing, RingElement
from .twists import TwistData, index_from_twist

__version__ = "0.1.0"

__all__ = [
    "AlgebraWindow",
    "AutomorphismGroup",
    "DualGraph",
    "FieldConfig",
    "GeneratorMap",
    "LaurentElement",
    "LaurentRing",
    "LinearSource",
    "ModuleElement",
    "ModulePresentation",
    "NodeRing",
    "RelationViolation",
    "RingElement",
    "SpinChart",
    "SymPowerSource",
    "TensorSource",
    "TwistData",
    "UpstairsElement",
    "algebra_window",
    "automorphisms",
    "check_well_defined",
    "cokernel_length",
    "compatibility_check",
    "default_prime",
    "deformation_dimension",
    "dual_pairing",
    "enumerate_assignments",
    "graph_genus",
    "index_from_twist",
    "is_prime",
    "lift_element",
    "lower_element",
    "make_module",
    "monomial_basis",
    "oracle_product_images",
    "oracle_sym_power_images",
    "power_map",
    "product_map",
    "resolution_exact_check",
    "spin_chi",
    "stability_check",
    "sym_power_map",
    "symbol_exponent",
    "tier_module",
    "vertex_degree_test",
    "__version__",
]
