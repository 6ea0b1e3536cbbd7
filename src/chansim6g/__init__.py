"""chansim6g: link-level 6G stochastic channel simulator.

A geometry-based stochastic channel generator following the standard 12-step
procedure (layout, LOS state, path loss, correlated large-scale parameters,
cluster delays/powers/angles, XPRs, phases, coefficients, large-scale
scaling) with five feature extensions: THz reflection and sparsity, E-MIMO
near-field and spatial non-stationarity, coupled ISAC channels, RIS cascaded
channels, and space-to-ground SAGIN links.
"""

from .config import ScenarioConfig, config_hash, load_config, load_preset
from .campaign import run_campaign, run_drop
from .cir import CirTensor, read_cir, synthesize_cir, write_cir
from .geometry import (ArrayGeometry, Position3D, build_ula, rayleigh_distance,
                       slant_geometry)
from .largescale import LSPSet, LspTableEntry, generate_lsps, lookup_lsp_table
from .smallscale import ClusterSet, generate_clusters

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry", "CirTensor", "ClusterSet", "LSPSet", "LspTableEntry",
    "Position3D", "ScenarioConfig", "build_ula", "config_hash",
    "generate_clusters", "generate_lsps", "load_config", "load_preset",
    "lookup_lsp_table", "rayleigh_distance", "read_cir", "run_campaign",
    "run_drop", "slant_geometry", "synthesize_cir", "write_cir",
    "__version__",
]
