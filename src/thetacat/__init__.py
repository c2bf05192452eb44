"""Exact combinatorics of generalized simplices and their presheaves."""

__version__ = "0.1.0"
