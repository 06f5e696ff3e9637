"""Distributed runtime substrate: the simulated PGAS machine.

Substitutes for OpenSHMEM + Conveyors + HClib-Actor on real hardware
(see DESIGN.md); HClib-Actor's lazy mailbox draining is a busy-period
charge on the receiver's clock (:meth:`repro.runtime.cost.CostModel.busy_period`).
The pieces:

* :mod:`repro.runtime.machine` — cluster geometry and Table IV rates;
* :mod:`repro.runtime.cost` — event pricing onto virtual clocks;
* :mod:`repro.runtime.topology` — 1D/2D/3D virtual HyperX routing;
* :mod:`repro.runtime.conveyors` — L0/L1 aggregation + PUT engine;
* :mod:`repro.runtime.collectives` — BSP barrier and alltoallv;
* :mod:`repro.runtime.cache` — LLC miss accounting (the PAPI stand-in);
* :mod:`repro.runtime.memory` — buffer accounting and OOM models;
* :mod:`repro.runtime.stats` — per-PE counters and clocks.
"""
