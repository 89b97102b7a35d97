"""Benchmark of the qhetfed simulator; run ``python3 -m perfbench.run --help``."""
