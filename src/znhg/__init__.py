"""Intersection and co-maximal hypergraphs on the subgroups of Z_n.

Exact construction and invariants (diameter, girth, chromatic number,
star/hypertree structure, certified planarity, isomorphism), closed-form
classification of the same invariants, and a harness comparing the two
over ranges of n.  An element-level finite-group engine provides the
definition-faithful oracle for the divisor-based shortcuts and the
dihedral examples.
"""

from .arith import Factorization, factorize, factorize_range
from .classify import Classification, predict
from .groups import FiniteGroup, Subgroup, all_subgroups, build_hypergraphs_for_group, cyclic, dihedral
from .hypergraph import (Hypergraph, build_comaximal_hypergraph,
                         build_intersection_hypergraph, enumerate_maximal_edges,
                         comaximal, trivially_intersects, vertex_set)
from .metrics import (HostTreeResult, chromatic_number, constructive_two_coloring,
                      diameter, distance, girth, has_host_tree, is_connected,
                      is_star, isomorphic, verify_host_tree, verify_isomorphism)
from .topology import (PlanarityResult, SimpleGraph, hypergraph_planar,
                       incidence_graph, is_planar, to_dot,
                       verify_kuratowski_witness, verify_rotation_system)
from .verify import AnalysisReport, analyze, run_sweep

__version__ = "0.1.0"
