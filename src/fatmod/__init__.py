"""Exact fatgraph enumeration and hyperelliptic intersection numbers.

Importing the package loads none of its modules; import each name from
the module that defines it.  The census store is
``fatmod.workspace.Workspace``, the identities are
``fatmod.integrals.evaluate`` and its report functions (``psi_top_moduli``,
``main_theorem``, ...), graphs and trees are ``fatmod.fatgraph.Fatgraph``
and ``fatmod.trees.PlanarTree``, censuses come from
``fatmod.enumeration``, hyperelliptic cells from ``fatmod.hyperelliptic``,
cell volumes and Pfaffians from ``fatmod.kontsevich``, and the errors from
``fatmod.errors``.  The command line is ``fatmod.cli``.
"""

__version__ = "0.1.0"
