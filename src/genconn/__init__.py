"""Generalized connectivity toolkit.

kappa_k(G) is the minimum over k-element vertex sets S of the maximum
number of pairwise internally disjoint S-trees.  The package provides an
exact budgeted oracle for it, vertex connectivity via max-flow, explicit
tree-family constructions in lexicographic products, closed-form and
inequality bounds with consistency reports, and JSON certificates that
re-verify independently.
"""

import sys
from importlib import util as _util

from .connectivity import disjoint_paths, vertex_connectivity
from .graphs import (Graph, ProductGraph, cartesian_product, family,
                     is_connected, lexicographic_product, min_degree,
                     parse_edge_list)
from .steiner import (DEFAULT_BUDGET, GCResult, SteinerTree, TreePacking,
                      Verdict, generalized_connectivity, kappa3,
                      max_tree_packing, verify_packing)

# every other public name, by the module that defines it; the module runs
# when one of its names is first read, so `import genconn` loads the oracle
# alone
_LAZY = {name: module for module, names in (
    ("bounds", "BoundCheck BoundReport Inapplicable cartesian_kappa3_upper "
               "cartesian_kappa_formula consistency_report "
               "kappa3_floor_from_kappa kappa_ceiling_from_kappa3 "
               "kappa_k_complete lex_kappa3_lower lex_kappa3_upper "
               "lex_kappa_formula"),
    ("certificates", "CertificateError certificate_set dump_certificate "
                     "load_certificate packing_certificate reverify"),
    ("construct", "ConstructionError ConstructionResult construct_general_lex "
                  "construct_path_lex construct_tree_lex"),
) for name in names.split()}


def _defer(module):
    """genconn.<module>, entered in sys.modules now and run on its first
    attribute read (`importlib.util.LazyLoader`), so that code which finds
    the package's modules through sys.modules sees all of them."""
    name = "%s.%s" % (__name__, module)
    spec = _util.find_spec(name)
    spec.loader = _util.LazyLoader(spec.loader)
    mod = _util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


bounds, certificates, construct = (_defer(m) for m in ("bounds", "certificates", "construct"))


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value


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
