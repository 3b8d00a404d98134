"""Numerical construction and certification of local k-Hessian solutions."""

__version__ = "0.1.0"
