"""Batched array kernels for independent-handset workloads.

The scalar engines simulate one handset per Python object; capacity
sweeps, reading-time CDFs, and policy evaluation all iterate thousands
of *statistically independent* handsets through them one event at a
time.  ``repro.fleet`` answers those questions with whole-array NumPy
passes instead:

- :mod:`repro.fleet.capacity` — sorted-event-sweep channel-occupancy
  resolution for :class:`repro.capacity.simulator.CapacitySimulator`,
  block by block with a carried busy frontier;
- :mod:`repro.fleet.policy` — Algorithm 2 thresholds applied to whole
  prediction vectors plus batched CDF anchors.

The scalar loops these kernels replaced live on as test oracles in
``tests/oracles/``; the differential and golden tests require identical
results.
"""
