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
    TwistAssignment,
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
    graded_dims,
    make_module,
    monomial_basis,
    source_generator_keys,
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
from .ring import GENERIC, LaurentElement, LaurentRing, NodeRing, RingElement, TMode
from .twists import (
    TierIndex,
    TwistData,
    balanced_partner,
    index_from_twist,
    marking_twist,
    tier_twists,
)
from .verify import ALL_SUITES, SuiteResult, run_all

__version__ = "0.1.0"

__all__ = [
    "ALL_SUITES",
    "AlgebraWindow",
    "AutomorphismGroup",
    "DualGraph",
    "FieldConfig",
    "GENERIC",
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
    "SuiteResult",
    "SymPowerSource",
    "TMode",
    "TensorSource",
    "TierIndex",
    "TwistAssignment",
    "TwistData",
    "UpstairsElement",
    "algebra_window",
    "automorphisms",
    "balanced_partner",
    "check_well_defined",
    "cokernel_length",
    "compatibility_check",
    "default_prime",
    "deformation_dimension",
    "dual_pairing",
    "enumerate_assignments",
    "graded_dims",
    "graph_genus",
    "index_from_twist",
    "is_prime",
    "lift_element",
    "lower_element",
    "make_module",
    "marking_twist",
    "monomial_basis",
    "oracle_product_images",
    "oracle_sym_power_images",
    "power_map",
    "product_map",
    "resolution_exact_check",
    "run_all",
    "source_generator_keys",
    "spin_chi",
    "stability_check",
    "sym_power_map",
    "symbol_exponent",
    "tier_module",
    "tier_twists",
    "vertex_degree_test",
    "__version__",
]
