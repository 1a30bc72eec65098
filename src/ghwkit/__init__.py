"""Generalized Hamming weights, weight hierarchies and higher weight spectra
of linear codes over arbitrary finite fields GF(p^s).

The package binds the function ``ghw`` over its submodule of the same name,
so ``import ghwkit.ghw as G`` gives the function.  The module itself is
``importlib.import_module("ghwkit.ghw")`` (or ``sys.modules["ghwkit.ghw"]``
once ghwkit is imported)."""

from .code import (
    LinearCode,
    bch_bound,
    code_from_rows,
    dual,
    generator_polynomial,
    is_cyclic,
    make_rm,
    make_rs,
    new_code,
)
from .enumeration import (
    count_e,
    count_full_support,
    expected_enumeration,
    gaussian_binomial,
    pivot_shapes,
    subspace_blocks,
    subspaces,
)
from .errors import GHWError
from .gf import FiniteField, build_field
from .ghw import (
    ComputeOptions,
    Hierarchy,
    Report,
    RoundEvent,
    RunReport,
    Spectrum,
    Witness,
    ghw,
    hierarchy,
    hierarchy_auto,
    higher_spectrum,
    naive_ghw,
    naive_rghw,
    rghw,
    rhierarchy,
    rhigher_spectrum,
    wei_duality,
)
from .infoset import InfoSetDecomposition, information
from .matrix import MatrixGF

__version__ = "0.1.0"

__all__ = [
    "FiniteField",
    "MatrixGF",
    "LinearCode",
    "InfoSetDecomposition",
    "Hierarchy",
    "Spectrum",
    "ComputeOptions",
    "Report",
    "RunReport",
    "RoundEvent",
    "Witness",
    "GHWError",
    "build_field",
    "new_code",
    "code_from_rows",
    "dual",
    "is_cyclic",
    "bch_bound",
    "generator_polynomial",
    "make_rs",
    "make_rm",
    "information",
    "gaussian_binomial",
    "count_full_support",
    "count_e",
    "expected_enumeration",
    "pivot_shapes",
    "subspaces",
    "subspace_blocks",
    "ghw",
    "hierarchy",
    "rghw",
    "rhierarchy",
    "hierarchy_auto",
    "wei_duality",
    "naive_ghw",
    "naive_rghw",
    "higher_spectrum",
    "rhigher_spectrum",
]
