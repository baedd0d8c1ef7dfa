"""Exact-arithmetic workbench for Euler-characteristic obstructions to
Bott vanishing on weak Fano threefolds of Picard rank 2.

The package re-exports nothing: import the module that defines a name,
as in ``from bottcheck.exact import Poly``.  ``bottcheck.cli`` imports
every other module."""

__version__ = "0.1.0"
