"""Exact integer combinatorics of cubical g-vectors and their polytope families."""

__version__ = "0.1.0"
