"""zenoprop: pulsed position measurements vs. a complex absorbing potential.

Numerically establishes the equivalence between the boundary propagator of a
free particle interrupted by periodic projections onto the positive axis and
the boundary propagator of a complex step potential, and propagates the
difference onto wave packets.  See the README for the map of subpackages.
"""

from .core import (
    BoundaryCurve,
    Grid1D,
    NumericalFailure,
    ROOT_INV_I,
    half_power_weights,
    heat_kernel,
)
from .exact import (
    absorbing_envelope,
    bridge_orthant,
    projected_envelope_exact,
    time_averaged_envelope,
)
from .lattice import (
    LatticeConfig,
    LatticeSweep,
    constrained_walk_probability,
    continuum_peak_estimate,
)
from .recursion import (
    EuclideanSlice,
    RecursionConfig,
    advance_slice,
    boundary_amplitude,
    initial_slice,
    run_recursion,
)
from .sawtooth import (
    calibrate_absorption,
    oscillation_ratio,
    peak_value,
    sawtooth_envelope,
    trough_value,
)
from .wavepacket import (
    WavePacket,
    delta_norm_scan,
    packet_boundary_derivative,
    pdx_delta_psi,
    stationary_delta_g,
    suppression_factor,
)

__version__ = "0.1.0"
