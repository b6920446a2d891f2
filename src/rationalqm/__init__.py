"""Exact-arithmetic state simulator on the discretised sphere: rational
cosine certificates, bit-string states with a hidden permutation, halving
measurement dynamics, and correlation experiments at desk scale."""

__version__ = "0.1.0"
