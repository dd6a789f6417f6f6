"""Exact dimensions of smooth spline spaces over planar triangulations."""

__version__ = "0.1.0"
