"""Exact Schubert calculus over a family of formal group laws.

Everything is exact arithmetic over Z[m1, m2]: sparse polynomials,
divided-difference operators for the additive, multiplicative,
hyperbolic and lorentz laws, word classes, coinvariant normal forms, a
deformed Hecke algebra with its identity verifiers, and the rectangle
product rule on Grassmannians.  Import from the submodules, e.g.
`from schubfgl.polycore import Poly`; the package root holds only the
version.
"""

__version__ = "0.1.0"
