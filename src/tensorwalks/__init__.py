"""Exact walk counting on McKay quivers and finite digraphs: tensor-power
multiplicities, centralizer-algebra dimensions, Poincare series, exponential
generating functions, Bratteli diagrams, and the abelian diagram basis --
every quantity computable by at least two independent routes.

The package root loads no submodule; import names from the modules, e.g.
`from tensorwalks.groups import parse_spec_full`."""

__version__ = "0.1.0"
