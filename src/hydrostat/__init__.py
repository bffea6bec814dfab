"""hydrostat: pseudo-spectral simulation and verification of the anisotropic
viscosity limits of the rescaled Navier-Stokes equations on the periodic box.

The namespace is lazy (PEP 562): each exported name, and each submodule,
resolves on first read by importing the submodule it comes from, so a
process loads only the modules it uses.  Every read goes through _EXPORTS
and nothing is cached here: hydrostat.make_grid is always the current
hydrostat.spectral.make_grid.
"""

import importlib
import sys

__version__ = "0.1.0"


def _lazy(package: str, exports: dict, submodules: tuple) -> tuple:
    """The PEP 562 __getattr__ and __dir__, and the __all__, of a package
    that exports exports[m] from each submodule m and has the further
    submodules named in submodules."""
    origin = {name: module for module, names in exports.items() for name in names}
    modules = (*exports, *submodules)

    def __getattr__(name: str):
        if name in origin:
            return getattr(importlib.import_module(f".{origin[name]}", package), name)
        if name in modules:
            return importlib.import_module(f".{name}", package)
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin, *modules})

    return __getattr__, __dir__, list(origin)


# submodule -> the names the package exports from it
_EXPORTS = {
    "bootstrap": (
        "BootstrapCertificate",
        "BudgetFunctions",
        "SampledFunction",
        "certify_bootstrap_family",
        "certify_exp_quadratic_bound",
        "certify_quadratic_bound",
        "continuation_schedule",
    ),
    "errors": (
        "BlowupDetected",
        "CompatibilityError",
        "ConfigError",
        "FormatError",
        "HydrostatError",
        "InsufficientData",
        "InvalidGrid",
        "InvalidParameter",
        "OrderingError",
        "ScheduleInfeasible",
        "ShapeError",
    ),
    "fields": (
        "SplitState",
        "VelocityState",
        "barotropic_split",
        "baroclinic_rhs",
        "diff_rhs_F",
    ),
    "norms": ("Energies", "NormAccumulator", "accumulate", "finalize", "norm_sobolev"),
    "solvers": ("SimConfig", "TrajectoryRecord", "run_simulation"),
    "spectral": (
        "EVEN",
        "NONE",
        "ODD",
        "Grid",
        "SpectralField",
        "field_from_function",
        "make_grid",
    ),
}
__getattr__, __dir__, __all__ = _lazy(__name__, _EXPORTS, ("harness",))
