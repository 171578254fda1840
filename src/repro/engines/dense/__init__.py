"""Dense Engine: systolic GEMM timing model."""

from repro.engines.dense.systolic import (
    GemmShape,
    GemmTiming,
    activation_cycles,
    gemm_timing,
    os_gemm_cycles,
    ws_gemm_cycles,
)

__all__ = [
    "GemmShape",
    "GemmTiming",
    "activation_cycles",
    "gemm_timing",
    "os_gemm_cycles",
    "ws_gemm_cycles",
]
