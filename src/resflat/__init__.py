"""Exact realizability of prescribed zero/pole orders and residues, with
verified flat-surface witnesses.

The submodules load on first use, so a process imports only the modules it
runs: ``resflat verify`` runs on ``core`` and ``verify`` alone.  A public
name first read from the package loads its module (PEP 562).  The import
system binds each submodule to the package once the module has run, and the
package then binds that module's public names too, so every later lookup is
a plain attribute of the package.
"""

import sys
from types import ModuleType

# Each submodule's public names.
_PUBLIC = {
    "core": (
        "PrimitiveRay",
        "QQi",
        "SearchBudgetExceeded",
        "StratumSignature",
        "collinear_normal_form",
        "residue_tuple",
        "validate_residues",
        "validate_stratum",
    ),
    "decide": (
        "Verdict",
        "decide_realizable",
        "enumerate_excluded_rays",
        "search_cylinder_tuple",
    ),
    "graphs": (
        "CylinderConfig",
        "find_connection_graph",
        "find_cylinder_config",
        "find_stable_config",
        "is_connection_graph",
    ),
    "surfaces": ("InternalBuildError", "blow_up_zero", "build_witness"),
    "verify": (
        "ConstructionCertificate",
        "FlatSurface",
        "Polygon",
        "PolarPart",
        "Profile",
        "SimplePolePart",
        "VerificationError",
        "profile_matches",
        "verify_certificate",
        "verify_surface",
    ),
    "cli": (),
}
_ORIGIN = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_ORIGIN)

__version__ = "0.1.0"


class _Package(ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        super().__setattr__(name, value)
        for public in _PUBLIC.get(name, ()):
            super().__setattr__(public, getattr(value, public))


sys.modules[__name__].__class__ = _Package


def __getattr__(name: str):
    module = name if name in _PUBLIC else _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ takes the interpreter's own import path, which -X importtime
    # logs (importlib.import_module loads unlogged), and binds the names.
    __import__(f"{__name__}.{module}")
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN, *_PUBLIC})
