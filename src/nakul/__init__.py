"""Multichannel time-series classifier mixing three views of a signal.

A stack of residual blocks combines adaptive multi-kernel temporal
mixing, learnable Gaussian spectral bands, and graph-biased spatial
attention, fused per channel on a simplex. Everything runs on a small
reverse-mode autodiff engine over numpy, with no compiled extensions.
"""

__version__ = "0.1.0"
