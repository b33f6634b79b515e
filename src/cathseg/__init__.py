"""Model-guided segmentation of thin dark tubular trajectories in 3D volumes."""

__version__ = "0.1.0"
