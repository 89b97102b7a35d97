"""Quantized hierarchical federated learning: simulator, bounds, and scheduling."""

# loaded with the package, so ``import qhetfed`` makes every ``qhetfed.<module>`` available;
# names are imported from the submodules
from . import analysis, checks, datagen, federation, harness, models, planner, quantizer, streams

__version__ = "0.1.0"
