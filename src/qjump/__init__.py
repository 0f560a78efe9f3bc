"""Statistical laboratory for a resonantly pumped two-level atom."""

from . import baseline, core, mc, pde, stats

__all__ = ["baseline", "core", "mc", "pde", "stats"]
__version__ = "0.1.0"
