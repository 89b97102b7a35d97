"""Quantized hierarchical federated learning: simulator, bounds, and scheduling."""

# loaded with the package, so ``import qhetfed`` makes the simulator's ``qhetfed.<module>``s available;
# ``analysis``, ``planner`` and ``cli`` load when imported, as no run needs them; names are imported from the submodules
from . import checks, datagen, federation, harness, models, quantizer, streams, timing

__version__ = "0.1.0"
