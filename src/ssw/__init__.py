"""Exact combinatorics of marked and scaled simplicial sets, with an
exhaustive lifting-problem engine."""

__version__ = "0.1.0"
