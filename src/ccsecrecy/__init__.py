"""Constellation-constrained secrecy rates for the complex-AWGN wiretap channel.

Computes the mutual information of finite, unit-energy constellations over a
pair of Gaussian channels (legitimate receiver and noisier eavesdropper), the
resulting secrecy capacity, and the finite interior SNR where that secrecy
capacity peaks.
"""

__version__ = "0.1.0"

from .capacity import (
    MIEstimate,
    WiretapChannel,
    cc_mutual_information,
    cc_mutual_information_mc,
    cc_output_entropy,
    cc_secrecy_capacity,
    db_to_linear,
    gaussian_channel_capacity,
    gaussian_secrecy_capacity,
)
from .constellation import (
    Constellation,
    average_energy,
    from_points,
    make_bpsk,
    make_psk,
    make_qam,
    min_distance,
)
from .integrate import (
    HermiteRule,
    MCConfig,
    gauss_hermite,
    mc_expect_complex_gaussian,
)
from .optimize import (
    MaximumResult,
    SearchOptions,
    find_secrecy_maximum,
    scan_secrecy_grid,
    sweep_max_vs_sigma,
)

__all__ = [
    "__version__",
    "Constellation",
    "HermiteRule",
    "MCConfig",
    "MIEstimate",
    "MaximumResult",
    "SearchOptions",
    "WiretapChannel",
    "average_energy",
    "cc_mutual_information",
    "cc_mutual_information_mc",
    "cc_output_entropy",
    "cc_secrecy_capacity",
    "db_to_linear",
    "find_secrecy_maximum",
    "from_points",
    "gauss_hermite",
    "gaussian_channel_capacity",
    "gaussian_secrecy_capacity",
    "make_bpsk",
    "make_psk",
    "make_qam",
    "mc_expect_complex_gaussian",
    "min_distance",
    "scan_secrecy_grid",
    "sweep_max_vs_sigma",
]
