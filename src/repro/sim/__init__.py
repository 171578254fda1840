"""The simulator: a coalesced replay of compiled unit queues
(:mod:`repro.sim.coalesce`)."""
