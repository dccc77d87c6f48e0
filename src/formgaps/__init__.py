"""Representation functions, local densities, correlation censuses and gap
constructions for sums of two squares and the x^2 + x*y + y^2 form.

Submodules load on use (`from formgaps import census`); importing the package
itself loads none of them, and numpy loads only when code first uses an array.
"""

__version__ = "0.1.0"
