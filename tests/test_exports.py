"""Every name a module exports exists, so a deletion that leaves a stale
__all__ entry fails here rather than at a caller's import."""

import importlib
import pkgutil

import icogate


def test_every_exported_name_exists():
    exporting = []
    for info in pkgutil.iter_modules(icogate.__path__):
        module = importlib.import_module(f"icogate.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        exporting.append(info.name)
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (info.name, missing)
    assert {"golden", "sots", "general", "cli"} <= set(exporting)
