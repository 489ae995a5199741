"""Mechanical and optical quadrature squeezing in a driven cavity with an
intracavity parametric amplifier.

The package models the linearized fluctuation dynamics of a red-detuned,
resolved-sideband optomechanical cavity whose field is additionally
squeezed by a degenerate parametric amplifier, and computes stationary
quadrature variances three independent ways (the spectral integral in
closed form, the Lyapunov solve, stochastic trajectories), plus the
homodyne spectrum of the output field that would detect the squeezing.
"""
from . import (adiabatic, cavity_pa, errors, lyapunov, mech_spectra,
               output_detection, params, sde_oracle, stability)
from .errors import *
from .params import *
from .stability import *
from .lyapunov import *
from .mech_spectra import *
from .adiabatic import *
from .output_detection import *
from .cavity_pa import *
from .sde_oracle import *

__version__ = "0.1.0"

# The sampler has one numpy core on every platform. The constant stays
# because perfbench/run.py records it among its machine facts, and its
# --compare refuses records whose backends differ.
BACKEND = "python"

# each module's __all__ is the one list of its public names
__all__ = ["BACKEND", "__version__"] + [
    name for module in (errors, params, stability, lyapunov, mech_spectra,
                        adiabatic, output_detection, cavity_pa, sde_oracle)
    for name in module.__all__]
