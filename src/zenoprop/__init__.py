"""zenoprop: pulsed position measurements vs. a complex absorbing potential.

Numerically establishes the equivalence between the boundary propagator of a
free particle interrupted by periodic projections onto the positive axis and
the boundary propagator of a complex step potential, and propagates the
difference onto wave packets.  See the README for the map of subpackages.
"""

__version__ = "0.1.0"
