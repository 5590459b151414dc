"""Two mechanical modes coupled through a dissipative cavity field:
closed-form effective parameters, an independent elimination check,
Fock-space and Gaussian simulation engines, and sweep/validation tools.
"""

__version__ = "0.1.0"

from .model import (
    CavityPump,
    ConfigError,
    FrameParams,
    MechanicalMode,
    SystemConfig,
    derive_frame,
    frame_from_collective,
    load_config,
    optical_spring,
)
from .effective import (
    CollectiveMode,
    EffectiveParams,
    collective_mode_coeffs,
    coupling_nulls,
    effective_params,
    exchange_coupling,
    interaction_regime,
)
from .elimination import build_coefficient_table, reduce_to_effective

__all__ = [
    "CavityPump",
    "CollectiveMode",
    "ConfigError",
    "EffectiveParams",
    "FrameParams",
    "MechanicalMode",
    "SystemConfig",
    "__version__",
    "build_coefficient_table",
    "collective_mode_coeffs",
    "coupling_nulls",
    "derive_frame",
    "effective_params",
    "exchange_coupling",
    "frame_from_collective",
    "interaction_regime",
    "load_config",
    "optical_spring",
    "reduce_to_effective",
]
