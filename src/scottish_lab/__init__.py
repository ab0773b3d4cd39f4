"""Desk-scale numerical lab for dyadic block norms, bilinear sign-form norms
of Hankel matrices, antidiagonal averaging operators, and flat-polynomial
witness constructions.

Names load lazily (PEP 562): `import scottish_lab` imports no submodule and
no numpy, and the first use of a public name imports the module that
defines it."""

import importlib

__version__ = "0.1.0"

# Each module and the public names it exports, each name once.
_EXPORTS = {
    "core": """CoeffSeq DenseMatrix block_of derive_seed hankel_matrix least_squares_line
               limit_estimate make_rng read_coeff_csv read_matrix_csv write_coeff_csv
               write_matrix_csv""",
    "dyadic": """DyadicProfile besov_detail besov_norm dyadic_kernel dyadic_profile
                 hard_block_bound lp_norm_circle lp_norm_detail""",
    "extremal": """DecayWitnessParams FlatPolyReport MajorantReport MomentReport assemble_majorant
                   flat_polynomial problem88_params problem88_witness psi rudin_shapiro
                   weighted_moment""",
    "mazur": """RangeDiagnostic WitnessReport antidiagonal_average cesaro_product problem8_witness
                range_diagnostic""",
    "tensornorm": """NormBracket SignVector injective_norm_exact injective_norm_search
                     projective_bracket v2_profile""",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_OWNER)


def __getattr__(name):
    # The name is looked up in its module on every access and never stored
    # here, so a function rebound in its module is seen through the package.
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
