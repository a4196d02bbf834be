"""Store-carry-forward packet simulation with credit-based reward settlement."""

from .engine import EngineConfig, PacketSpec, run
from .incentives import IncentiveConfig
from .metrics import build_summary
from .mobility import MobilityConfig
from .model import ValidationError

__version__ = "0.1.0"

__all__ = [
    "EngineConfig",
    "IncentiveConfig",
    "MobilityConfig",
    "PacketSpec",
    "ValidationError",
    "build_summary",
    "run",
]
