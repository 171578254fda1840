"""Analytic cost models of the two engines: GPE lane slots
(:mod:`repro.engines.graph.gpe`) and systolic GEMM timing
(:mod:`repro.engines.dense.systolic`)."""
