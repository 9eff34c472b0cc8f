"""Classification and grid certification of effectively hyperbolic
double characteristics of second order symbols -tau^2 + a(t, x, xi)."""

import importlib

# Each export's module, imported at the export's first read (PEP 562), so
# that a verb loads only the modules it runs.
_MODULES = {
    # symbols
    "DimensionMismatch": "symbols",
    "NotSingular": "symbols",
    "PhasePoint": "symbols",
    "PolySymbol": "symbols",
    "QuadraticJet": "symbols",
    "homogeneity_check": "symbols",
    "phase_variables": "symbols",
    "poisson_bracket": "symbols",
    "quadratic_jet": "symbols",
    # spectral
    "Classification": "spectral",
    "NoConvergence": "spectral",
    "Spectrum": "spectral",
    "classify_effective_hyperbolicity": "spectral",
    "hamilton_map": "spectral",
    "spectrum": "spectral",
    # normal_forms
    "ExtendedQ": "normal_forms",
    "InvariantViolation": "normal_forms",
    "NormalFormSpec": "normal_forms",
    "SideConditionReport": "normal_forms",
    "Theta": "normal_forms",
    "build_extended_Q": "normal_forms",
    "check_side_conditions": "normal_forms",
    "validate_spec": "normal_forms",
    # time_functions
    "TimeFunctionCert": "time_functions",
    "WeightSelection": "time_functions",
    "alpha_coefficients": "time_functions",
    "construct_time_function": "time_functions",
    "epsilon_weights": "time_functions",
    # verifier
    "CertificateReport": "verifier",
    "NonnegReport": "verifier",
    "RatioEstimate": "verifier",
    "StructuralReport": "verifier",
    "certify_region": "verifier",
    "check_structural": "verifier",
    # grid
    "ScanTooLarge": "grid",
    # minimize
    "MinimizeResult": "minimize",
    "minimize_Q": "minimize",
    # symbolfile
    "ParseError": "symbolfile",
    "Region": "symbolfile",
    "SchemaError": "symbolfile",
    "SymbolFile": "symbolfile",
    "parse_symbol_data": "symbolfile",
    "parse_symbol_file": "symbolfile",
    "serialize_symbol_file": "symbolfile",
}

__version__ = "0.1.0"

__all__ = sorted(_MODULES)


def __getattr__(name):
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("hypcert." + module), name)
    globals()[name] = value
    return value
