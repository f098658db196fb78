"""A store on disk for read-only float64 tables, shared between processes.

fracops keeps the tables of its sum-of-exponentials operators here, so that
a later process on the same mesh reads them instead of building them.  The
store is the directory $XDG_CACHE_HOME/hilferbvp, or ~/.cache/hilferbvp
when XDG_CACHE_HOME is unset or not an absolute path.  Each entry is one
file holding a list of arrays under a key string:

    8 bytes   magic, HBVPTAB2
    4 bytes   zlib crc32 of the data, little-endian
    header    the key, the environment (_environment) and the array
              shapes, one text line each, then spaces up to the next
              multiple of 64 bytes from the start of the file
    data      the arrays' float64 bytes, C order, one after the other

A reader compares the whole header with the one it expects, the file size
with the header and the shapes, and the data with the crc32; any mismatch,
an entry of another format among them, reads as a miss.  A hit is served
from a read-only map of the file, not a copy: the padding puts the data on
a 64-byte boundary of the map, so every array is aligned for its dtype and
numpy runs its matmul on them as on built ones.  Writers fill a temporary
file in the store and rename it over the entry, so a reader sees a whole
entry or none, and a mapped file is never changed: renaming a new entry
over it or removing it leaves the mapping as it was.  Nothing may truncate
or rewrite an entry in place, which would end a process that maps it with
SIGBUS.  Nothing is synced to disk: an entry cut short by a crash fails
those checks and is rebuilt.
The store holds at most CAP_BYTES; a write that takes it past removes the
least recently used files (a read refreshes an entry's mtime) until it
fits, skipping those it cannot stat or remove.
A store that cannot be read or written reads as empty and is written to
silently, never raising.
"""

from __future__ import annotations

import ctypes
import errno
import mmap
import os
import sys
import tempfile
import zlib
from functools import cache
from math import prod
from typing import List, Optional, Sequence, Tuple

import numpy as np

CAP_BYTES = 1 << 30
_MAGIC = b"HBVPTAB2"
_PREFIX = len(_MAGIC) + 4
_ALIGN = 64
_SUFFIX = ".tab"

Shape = Tuple[int, ...]


def directory() -> Optional[str]:
    """The store's directory, or None when no absolute one can be named."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "hilferbvp") if os.path.isabs(base) else None


def _lapack() -> str:
    """The LAPACK that numpy.linalg runs: its name and version as numpy was
    built, and for OpenBLAS its build and the core whose kernels it picked
    by CPU model or OPENBLAS_CORETYPE.  OpenBLAS is looked up through the
    handle of numpy.linalg's extension, which searches only the libraries
    it links, not another package's BLAS in the process."""
    from numpy.linalg import _umath_linalg
    try:
        built = np.__config__.CONFIG["Build Dependencies"]["lapack"]
        names = [f"{built['name']} {built['version']}"]
    except (AttributeError, KeyError, TypeError):
        names = ["?"]
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return " ".join(names)
    for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", ""), ("scipy_", "64_")):
        config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
        core = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
        if config is not None and core is not None:
            config.restype = core.restype = ctypes.c_char_p
            names.append(f"({config().decode()}; core {core().decode()})")
            break
    return " ".join(names)


@cache
def _environment() -> str:
    """What besides the key decides a table's bits: the Python, libc and
    numpy versions, the CPU features numpy enabled, on which its SIMD exp
    and pow dispatch, and the LAPACK that gives the Gauss modes'
    eigenvectors (_lapack)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:                 # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or "?"
    except (AttributeError, ValueError, OSError):
        libc = "?"
    enabled = " ".join(sorted(name for name, on in features.items() if on))
    return (f"python {sys.version.split()[0]}; {libc}; numpy {np.__version__}; "
            f"{enabled}; {_lapack()}")


def _header(key: str, shapes: Sequence[Shape]) -> bytes:
    """The header, padded so that the data starts at a multiple of _ALIGN."""
    dims = ";".join(",".join(map(str, shape)) for shape in shapes)
    text = f"{key}\n{_environment()}\n{dims}\n".encode()
    return text + b" " * (-(_PREFIX + len(text)) % _ALIGN)


def _entry(folder: str, header: bytes) -> str:
    """The entry's file: two checksums of the magic and the header name it,
    so entries of another format keep files of their own.  Entries whose
    names collide overwrite each other, and their readers see a mismatch."""
    named = _MAGIC + header
    return os.path.join(folder, f"{zlib.crc32(named):08x}{zlib.adler32(named):08x}{_SUFFIX}")


def load(key: str, shapes: Sequence[Shape]) -> Optional[List[np.ndarray]]:
    """The read-only arrays stored under `key`, if the store holds an
    intact entry of exactly these shapes; else None.  The arrays are views
    of one read-only map of the entry's file, which they keep open; only
    once the header and the size match is the file mapped and its data
    checked.  A map that fails reads as a miss, except for want of address
    space or memory (ENOMEM), which raises MemoryError."""
    folder = directory()
    if folder is None:
        return None
    header = _header(key, shapes)
    path = _entry(folder, header)
    sizes = [prod(shape) for shape in shapes]
    start = _PREFIX + len(header)
    size = start + 8 * sum(sizes)
    try:
        with open(path, "rb", buffering=0) as handle:
            head = handle.read(start)
            if (head[:len(_MAGIC)] != _MAGIC or head[_PREFIX:] != header
                    or os.fstat(handle.fileno()).st_size != size):
                return None
            try:
                mapping = mmap.mmap(handle.fileno(), size, access=mmap.ACCESS_READ)
            except OSError as error:
                if error.errno == errno.ENOMEM:
                    raise MemoryError(f"cannot map {size} bytes of {path}") from error
                raise
    except (OSError, ValueError):       # ValueError: shorter than its fstat
        return None
    crc = int.from_bytes(head[len(_MAGIC):_PREFIX], "little")
    if zlib.crc32(memoryview(mapping)[start:]) != crc:
        return None
    try:
        os.utime(path)
    except OSError:
        pass                            # say, another user's entry
    arrays = []
    for shape, count in zip(shapes, sizes):
        arrays.append(np.ndarray(shape, np.float64, buffer=mapping, offset=start))
        start += 8 * count
    return arrays


def save(key: str, arrays: Sequence[np.ndarray]) -> None:
    """Store the C-contiguous float64 `arrays` under `key`, written from
    their own buffers; then evict down to CAP_BYTES.  An entry larger than
    CAP_BYTES is not stored."""
    folder = directory()
    if folder is None:
        return
    header = _header(key, [a.shape for a in arrays])
    if _PREFIX + len(header) + sum(a.nbytes for a in arrays) > CAP_BYTES:
        return
    path = _entry(folder, header)
    try:
        os.makedirs(folder, exist_ok=True)
        fd, temp = tempfile.mkstemp(suffix=".tmp", dir=folder)
        try:
            with open(fd, "wb") as handle:
                # Checksummed only once the store took a file.
                crc = 0
                for a in arrays:
                    crc = zlib.crc32(a, crc)
                handle.write(_MAGIC + crc.to_bytes(4, "little") + header)
                for a in arrays:
                    handle.write(a)
            os.replace(temp, path)
        except BaseException:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise
        _evict(folder)
    except OSError:
        pass


def _evict(folder: str) -> None:
    """Remove the store's least recently used files, entries and leftover
    temporary files alike, until the rest take at most CAP_BYTES.  A file
    that cannot be removed, say another user's, is skipped and still counts
    against the cap; one that cannot be stat'ed is left out."""
    files = []
    with os.scandir(folder) as entries:
        for entry in entries:
            if not entry.name.endswith((_SUFFIX, ".tmp")):
                continue
            try:
                if entry.is_file(follow_symlinks=False):
                    stat = entry.stat(follow_symlinks=False)
                    files.append((stat.st_mtime_ns, stat.st_size, entry.path))
            except OSError:
                continue                # say, removed by another process
    total = sum(size for _, size, _ in files)
    for _, size, path in sorted(files):
        if total <= CAP_BYTES:
            break
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass                        # removed by another process: freed
        except OSError:
            continue
        total -= size
