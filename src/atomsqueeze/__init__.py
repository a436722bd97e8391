"""atomsqueeze: transient quadrature squeezing from a single two-level emitter.

Truncated Fock-space states and loss (fock), vacuum/one-photon
superpositions and squeezed vacuum (superposition), resonant atom-field
dynamics (jaynes_cummings), phase-space grids (wigner), homodyne Monte
Carlo (homodyne), temporal modes and the detection budget (modes), and a
command line front end (cli).

The public names resolve lazily (PEP 562): `import atomsqueeze` loads no
submodule, and the first public name asked for, `__all__` or `dir()`
imports the seven library modules and binds their names here.  So a
command that needs only the scalar closed forms starts without numpy.
"""

__version__ = "0.1.0"

# the modules whose __all__ the package re-exports, in order
_LIBRARY = ("errors", "fock", "homodyne", "jaynes_cummings", "modes", "superposition", "wigner")
_SUBMODULES = {*_LIBRARY, "cli", "closed_forms"}
_MACHINERY = {"_LIBRARY", "_SUBMODULES", "_MACHINERY", "__getattr__", "__dir__"}


def __getattr__(name: str):
    # `from . import fock` asks hasattr(package, "fock") before importing the
    # submodule, so a submodule name must not load the library (and numpy)
    if name in _SUBMODULES or (name.startswith("__") and name != "__all__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    if "__all__" not in namespace:
        import importlib

        public = []
        for module in (importlib.import_module(f".{m}", __name__) for m in _LIBRARY):
            namespace.update((n, getattr(module, n)) for n in module.__all__)
            public += module.__all__
        namespace["__all__"] = [*public, "__version__"]
    if name not in namespace:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return namespace[name]


def __dir__():
    __getattr__("__all__")
    return sorted(globals().keys() - _MACHINERY)
