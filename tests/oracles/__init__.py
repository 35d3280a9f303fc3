"""Scalar reference implementations of the production kernels.

Each oracle is the plain loop a vectorised or batched kernel in ``src/``
replaced.  They live here, not in ``src/``, so the program has one path
per behaviour; the differential tests run both on the same inputs and
require identical results, and the golden tests rerun whole experiments
with an oracle patched in.  :mod:`tests.oracles.readouts` holds the
derived numbers (time in an RRC mode, DOM depth, display savings, ...)
that only tests read off ``src/`` results.
"""
