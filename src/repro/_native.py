"""The package's compiled code: one C library, built on first import.

Three C files hold the loops that run too often for the interpreter:
``network/walk_kernel.c`` (every hop of every walk),
``data/visit_kernel.c`` (the visit's row selection and its reduction)
and ``seed_kernel.c`` (numpy's ``SeedSequence`` mixing, behind every
stream a query seeds).  They are compiled together, on the first
import on a machine, with the compiler Python was built with
(``sysconfig``'s ``CC``), into the per-user cache
(``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``), keyed by a hash
of the sources, the flags and the platform, and loaded through
:mod:`ctypes`.  An import that finds the library built starts no child
process.  A missing compiler or an unwritable cache raises
:class:`~repro.errors.KernelBuildError`; there is no second
implementation to fall back to.

Libraries built from older sources are kept: checkouts of two
revisions that share one cache each find their own library built.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import sysconfig
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import KernelBuildError

__all__ = ["address", "bind", "function"]

_PACKAGE = Path(__file__).parent

_SOURCES = (
    _PACKAGE / "network" / "walk_kernel.c",
    _PACKAGE / "data" / "visit_kernel.c",
    _PACKAGE / "seed_kernel.c",
)

#: Where built libraries are kept: one per sources, flags and platform.
_CACHE_DIR = (
    Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    / "repro"
)

#: The compiler command Python was built with.
_CC = sysconfig.get_config_var("CC") or ""

# -ffp-contract=off: no product may be fused into a multiply-add, or
# an int() cutoff, an accept test or a sum moves by an ulp.  No
# fast-math.
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _build(library: Path) -> None:
    """Compile the sources to ``library``.

    The compiler writes a name of this process's own, which is then
    renamed into place, so a concurrent first import on the same
    machine only ever loads a complete file.
    """
    import subprocess  # the cold path only: a warm import spawns nothing

    directory = library.parent
    if not _CC:
        raise KernelBuildError(
            f"cannot build the compiled kernels into {directory}: Python "
            "names no C compiler (sysconfig CC is empty)"
        )
    partial = directory / f".{library.name}.{os.getpid()}"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        partial.touch()
    except OSError as error:
        raise KernelBuildError(
            f"cannot build the compiled kernels with {_CC!r}: the cache "
            f"directory {directory} is not writable ({error})"
        ) from error
    command = [
        *shlex.split(_CC), *_FLAGS, "-o", str(partial), *map(str, _SOURCES)
    ]
    try:
        subprocess.run(command, check=True, capture_output=True, text=True)
    except OSError as error:
        raise KernelBuildError(
            f"cannot build the compiled kernels into {directory}: the C "
            f"compiler {_CC!r} did not run ({error})"
        ) from error
    except subprocess.CalledProcessError as error:
        raise KernelBuildError(
            f"cannot build the compiled kernels into {directory}: {_CC!r} "
            f"exited {error.returncode}: {error.stderr.strip()}"
        ) from error
    else:
        os.replace(partial, library)
    finally:
        partial.unlink(missing_ok=True)


def _load() -> ctypes.PyDLL:
    """The library, built into :data:`_CACHE_DIR` first if it is not
    there yet.  A ``PyDLL`` keeps the GIL over every call: a call is
    microseconds, and its buffers are this thread's."""
    key = hashlib.sha256()
    for source in _SOURCES:
        key.update(source.read_bytes())
    key.update(" ".join((sysconfig.get_platform(), *_FLAGS)).encode())
    library = _CACHE_DIR / f"repro_kernels-{key.hexdigest()[:16]}.so"
    if not library.exists():
        _build(library)
    return ctypes.PyDLL(str(library))


_library = _load()


def bind(name: str, struct: Any) -> Callable[..., int]:
    """The library's function ``name``, which takes a pointer to one
    ``struct`` (a :class:`ctypes.Structure`) and returns an ``int64``.
    Each call passes only that struct: every ``ctypes`` argument costs
    time, and a call is a few microseconds."""
    function = getattr(_library, name)
    function.argtypes = (ctypes.POINTER(struct),)
    function.restype = ctypes.c_int64
    return function


def function(name: str) -> Callable[..., int]:
    """The library's function ``name`` with ``ctypes``' default
    conversions and no ``argtypes`` (a call ≈ 0.5 µs, a third of a
    declared one): ``bytes`` and ``ctypes`` arrays pass as pointers,
    Python ints as C ``int``\\ s, and it returns a C ``int``."""
    return getattr(_library, name)  # type: ignore[no-any-return]


def address(array: np.ndarray) -> int:
    """Where ``array``'s data starts (≈ 2 µs: read it once per buffer,
    not once per call)."""
    return int(array.ctypes.data)
