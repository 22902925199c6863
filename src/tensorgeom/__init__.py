"""Tensor algebra and differential geometry of curves and surfaces in 3-space.

Each submodule loads on first use (``tensorgeom.surface``, ``from tensorgeom
import coords``), so ``import tensorgeom`` loads none of them; without a
bytecode cache every process compiles each module it loads.
"""

__version__ = "0.1.0"

_SUBMODULES = ("expr", "tensor2", "tensor4", "curve", "coords", "surface", "cli")


def __getattr__(name: str):
    if name in _SUBMODULES:
        import importlib
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES})
