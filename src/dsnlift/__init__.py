"""Discrete superposition relay networks and code lifting.

Tools for quantizing a Gaussian relay network into an exact discrete
superposition model, searching and running codes on the discrete model,
and lifting those codes back onto the noisy network with per-node pruned
decision sets, together with Monte Carlo verification of the entropy
bounds that price the round trip.
"""

# Defined before the submodule imports because pipeline stamps artifacts
# with the package version.
__version__ = "0.1.0"

from .channel import (
    ComplexGain,
    Decomposition,
    compute_bit_depth,
    decompose_received,
    quantize_gain,
    superposition_output,
)
from .codes import (
    ModuloMap,
    ProductCode,
    QuantizeForward,
    RelayCode,
    TableMap,
    purify_zero_error,
    run_dsn,
    search_base_code,
)
from .gaussian import (
    NoiseSpec,
    exact_gaussian_cell_entropy,
    simulate_lifted,
    verify_genie_bounds,
)
from .lifting import (
    KappaParams,
    build_lifted_code,
    kappa,
    kappa_mimo,
    prune_sets,
    rate_report,
)
from .network import (
    Edge,
    RelayNetwork,
    layer_decomposition,
    load_network,
    validate,
)
from .pipeline import ExperimentConfig, load_config, run_pipeline
from .typicality import (
    FiniteDistribution,
    enumerate_typical_receptions,
    enumerate_typical_symbol_vectors,
    is_strongly_typical,
)
