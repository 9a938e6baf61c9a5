"""Exact free-cumulant calculus on non-crossing partitions, free products of
*-probability spaces, and executable freeness/positivity verification.

Every name is imported from the module that defines it.  The package root
binds only the three names the benchmark's set-up child (``ncbench/child.py``)
reads from it.
"""

# These go once the benchmark's child imports them from their modules.
from .scalar import ComplexRational
from .cumulant_calculus import MomentSequence
from .free_product import product_space_from_json
