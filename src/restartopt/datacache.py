"""A content-addressed store of parsed dataset arrays on local disk.

``problems.load_dataset`` keeps each array it parses here under ``key``:
the size of the file and the sha256 of a version tag, the format, the
dimension argument and the file's bytes. A file read again with the same
bytes skips its parse, whatever its name or modification time; a file
whose bytes changed gets a new key and is parsed again. ``lookup`` hashes
a file only when some entry has its size, so the first load of a file
reads it once: its parse reads it through a ``Reader``, which hashes the
bytes as they go by. An entry's key thus names the bytes it was parsed
from, and neither a lookup nor a parse holds a copy of the file.

Entries are ``.npy`` files under ``$XDG_CACHE_HOME/restartopt/`` (by
default ``~/.cache/restartopt/``), a directory created with mode 0700.
An entry is written to a temporary file, flushed to disk and renamed into
place, so a reader sees a whole entry or none. Reading an entry marks it
used; after each write the least recently used entries are removed until
the store holds at most ``MAX_BYTES``. No failure of the store reaches
the caller: an entry that cannot be read, or is not a native float64
matrix of exactly its file's size, is a miss, and a write that fails is
skipped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import tempfile
from typing import BinaryIO, Optional

import numpy as np

# Part of every key; change it when a parser's output for some bytes changes.
VERSION = "restartopt-dataset-1"
MAX_BYTES = 1 << 30


def _hasher(fmt: str, dimension: Optional[int]) -> "hashlib._Hash":
    return hashlib.sha256(f"{VERSION}\0{fmt}\0{dimension}\0".encode())


def key(fmt: str, dimension: Optional[int], fh: BinaryIO) -> str:
    """The entry name for the bytes left in ``fh``, parsed as ``fmt`` at ``dimension``.

    The bytes are hashed a chunk at a time, so a lookup holds no copy of the file.
    """
    h = _hasher(fmt, dimension)
    size = 0
    while chunk := fh.read(1 << 20):
        h.update(chunk)
        size += len(chunk)
    return f"{size}-{h.hexdigest()}"


def lookup(fmt: str, dimension: Optional[int], fh: BinaryIO) -> Optional[np.ndarray]:
    """The stored parse of ``fh``'s bytes as ``fmt`` at ``dimension``, or None.

    ``fh`` is read, from its start, only when an entry has its size.
    """
    root = directory()
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    try:
        if root is None or not any(name.startswith(f"{size}-") for name in os.listdir(root)):
            return None
    except OSError:  # no store yet, or one that cannot be listed
        return None
    return load(key(fmt, dimension, fh))


class Reader(io.BufferedIOBase):
    """``fh`` read from its start, each byte hashed as it is read.

    A parse reads the file to its end through this reader, so ``key()``
    then names the bytes the parse saw, even if the file changed since it
    was looked up. Rewinding, the only seek there is, restarts the hash,
    so a second parse of the file is keyed by its own pass.
    """

    def __init__(self, fmt: str, dimension: Optional[int], fh: BinaryIO) -> None:
        super().__init__()
        self._fh = fh
        self._fmt, self._dimension = fmt, dimension
        self.seek(0)

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        if (offset, whence) != (0, io.SEEK_SET):
            raise io.UnsupportedOperation("a hashed read can only rewind")
        self._hash = _hasher(self._fmt, self._dimension)
        self._size = 0
        return self._fh.seek(0)

    def read(self, size: Optional[int] = -1) -> bytes:
        return self._hashed(self._fh.read(size))

    def read1(self, size: int = -1) -> bytes:
        return self._hashed(self._fh.read1(size))

    def _hashed(self, chunk: bytes) -> bytes:
        self._hash.update(chunk)
        self._size += len(chunk)
        return chunk

    def key(self) -> str:
        """The entry name for the bytes read since the last rewind."""
        return f"{self._size}-{self._hash.hexdigest()}"


def directory() -> Optional[str]:
    """``$XDG_CACHE_HOME/restartopt``, or None where no absolute home is known.

    A relative ``XDG_CACHE_HOME`` is ignored, as the XDG base directory
    specification asks.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "restartopt") if os.path.isabs(base) else None


def load(name: str) -> Optional[np.ndarray]:
    """The stored C-ordered float64 matrix ``name``, or None."""
    root = directory()
    if root is None:
        return None
    entry = os.path.join(root, name + ".npy")
    try:
        with open(entry, "rb") as fh:
            # Check the header against the file's size before numpy
            # allocates what a damaged header asks for.
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            size = fh.tell() + dtype.itemsize * math.prod(shape)
            if (fortran_order or dtype != np.float64 or len(shape) != 2
                    or os.fstat(fh.fileno()).st_size != size):
                return None
            fh.seek(0)
            data = np.load(fh, allow_pickle=False)
    except (OSError, ValueError):
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)  # the modification time orders eviction
    return data


def store(name: str, data: np.ndarray) -> None:
    """Keep ``data`` as entry ``name``, then evict down to ``MAX_BYTES``."""
    root = directory()
    if root is None or data.nbytes > MAX_BYTES:
        return
    tmp = None
    try:
        os.makedirs(root, mode=0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, data, allow_pickle=False)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, os.path.join(root, name + ".npy"))
        tmp = None
        _evict(root)
    except OSError:
        pass
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _evict(root: str) -> None:
    """Remove the least recently used entries until the rest fit in ``MAX_BYTES``."""
    entries = []
    with os.scandir(root) as it:
        for entry in it:
            if entry.name.endswith(".npy"):
                with contextlib.suppress(OSError):  # another process may evict it first
                    st = entry.stat()
                    entries.append((st.st_mtime_ns, entry.path, st.st_size))
    total = sum(size for _, _, size in entries)
    for _, path, size in sorted(entries):
        if total <= MAX_BYTES:
            break
        with contextlib.suppress(OSError):
            os.unlink(path)
        total -= size
