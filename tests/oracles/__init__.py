"""Scalar reference implementations of the production kernels.

Each oracle is the plain loop a vectorised or batched kernel in ``src/``
replaced.  They live here, not in ``src/``, so the program has one path
per behaviour; the differential tests run both on the same inputs and
require identical results, and the golden tests rerun whole experiments
with an oracle patched in.
"""
