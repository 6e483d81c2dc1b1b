"""Exact fatgraph enumeration and hyperelliptic intersection numbers."""

from .errors import (BadLeafCount, CacheError, FatmodError, MalformedGraph,
                     NotAnAutomorphism, NotExpandable, NotSymmetric,
                     ResourceLimit, WrongBoundaryCount, WrongType)
from .fatgraph import (BoundaryCycles, Fatgraph, FixedCells, GraphType,
                       one_vertex_opposite_pairing, two_vertex_star_double)
from .trees import PlanarTree
from .enumeration import (CensusEntry, OrbifoldCensus, catalan, catalan5,
                          enumerate_fatgraphs, enumerate_trees)
from .hyperelliptic import (HyperellipticCell, W1HComponents,
                            cut_along_involution, double_tree,
                            hyperelliptic_census)
from .kontsevich import (CellVolume, cell_volume, hyperelliptic_cell_volume,
                         omega_matrix, pfaffian)
from .integrals import (IntegralReport, boundary_integral, euler_report,
                        hodge_corollary, main_theorem, psi_top_genus0,
                        psi_top_hyperelliptic, psi_top_moduli, w1_h_integral)
from .workspace import Workspace

__version__ = "0.1.0"
