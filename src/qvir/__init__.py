"""Exact verification workbench for the c=1/2 Virasoro vertex algebra.

Subpackages cover exact truncated q-series and the kernels that build them,
character formulas and identities, pattern-avoiding partition enumeration,
finite polynomial families, the differential polynomial ring with its graded
ideal slices, Virasoro vacuum-module linear algebra, and dilogarithm
asymptotics.
"""

from qvir.qseries import QSeries

__all__ = ["QSeries"]
__version__ = "0.1.0"
