"""Generalized connectivity toolkit.

kappa_k(G) is the minimum over k-element vertex sets S of the maximum
number of pairwise internally disjoint S-trees.  The package provides an
exact budgeted oracle for it, vertex connectivity via max-flow, explicit
tree-family constructions in lexicographic products, closed-form and
inequality bounds with consistency reports, and JSON certificates that
re-verify independently.
"""

from .bounds import (BoundCheck, BoundReport, Inapplicable,
                     cartesian_kappa3_upper, cartesian_kappa_formula,
                     consistency_report, kappa3_floor_from_kappa,
                     kappa_ceiling_from_kappa3, kappa_k_complete,
                     lex_kappa3_lower, lex_kappa3_upper, lex_kappa_formula)
from .certificates import (CertificateError, certificate_set,
                           dump_certificate, load_certificate,
                           packing_certificate, reverify)
from .connectivity import disjoint_paths, vertex_connectivity
from .construct import (ConstructionError, ConstructionResult,
                        construct_general_lex, construct_path_lex,
                        construct_tree_lex)
from .graphs import (Graph, ProductGraph, cartesian_product, family,
                     is_connected, lexicographic_product, min_degree,
                     parse_edge_list)
from .steiner import (DEFAULT_BUDGET, GCResult, SteinerTree, TreePacking,
                      Verdict, generalized_connectivity, kappa3,
                      max_tree_packing, verify_packing)

__version__ = "0.1.0"

__all__ = [
    "BoundCheck", "BoundReport", "CertificateError", "ConstructionError",
    "ConstructionResult", "DEFAULT_BUDGET", "GCResult", "Graph",
    "Inapplicable", "ProductGraph", "SteinerTree", "TreePacking", "Verdict",
    "cartesian_kappa3_upper", "cartesian_kappa_formula", "cartesian_product",
    "certificate_set", "consistency_report", "construct_general_lex",
    "construct_path_lex", "construct_tree_lex", "disjoint_paths",
    "dump_certificate", "family", "generalized_connectivity",
    "is_connected", "kappa3",
    "kappa3_floor_from_kappa", "kappa_ceiling_from_kappa3",
    "kappa_k_complete", "lex_kappa3_lower", "lex_kappa3_upper",
    "lex_kappa_formula", "lexicographic_product", "load_certificate",
    "max_tree_packing", "min_degree",
    "packing_certificate", "parse_edge_list", "reverify",
    "vertex_connectivity", "__version__",
]
