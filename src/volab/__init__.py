"""Desk-scale laboratory for sparse volumetric anomaly detection."""

from volab.tensor import Tensor, backward

__all__ = ["Tensor", "backward"]
__version__ = "0.1.0"
