"""The on-disk format of every artifact: ``key = value`` text manifests
beside flat little-endian float64 blobs, in directories that a save
replaces whole.  A blob is written from and read into the caller's arrays
in place, so no save or load holds a second copy of the data.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys

import numpy as np

from .errors import ConfigError


def parse_pairs(text: str, where: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment.  A line without
    '=' raises a ``ConfigError`` naming ``where`` and the line number."""
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"{where} line {lineno} is not 'key = value': {line!r}")
        pairs[key.strip()] = value.strip()
    return pairs


class Manifest:
    """The pairs of one manifest file.  ``get`` names the file and the key
    of a value that is missing or that ``parse`` rejects."""

    def __init__(self, path: str, what: str):
        try:
            with open(path) as f:
                self.pairs = parse_pairs(f.read(), path)
        except FileNotFoundError:
            raise ConfigError(f"no {what} at {os.path.dirname(path) or '.'} (expected {path})") from None
        self.path = path

    def get(self, key: str, parse=str):
        if key not in self.pairs:
            raise ConfigError(f"{self.path} has no {key!r}")
        try:
            return parse(self.pairs[key])
        except ValueError:
            raise ConfigError(f"{self.path}: {key!r} has a malformed value {self.pairs[key]!r}") from None


def one_of(*choices: str):
    """A ``Manifest.get`` parser that accepts only ``choices``."""

    def parse(value: str) -> str:
        if value not in choices:
            raise ValueError(value)
        return value

    return parse


def write_manifest(path: str, pairs: dict) -> None:
    with open(path, "w") as f:
        f.write("".join(f"{key} = {value}\n" for key, value in pairs.items()))


def write_blob(path: str, parts) -> None:
    """Write the float64 arrays ``parts`` back to back, little-endian."""
    with open(path, "wb") as f:
        for part in parts:
            f.write(part.astype("<f8", copy=False).data)


def read_blob(path: str, parts: list[np.ndarray]) -> None:
    """Fill the contiguous float64 ``parts`` in place from a blob that must
    hold exactly their bytes."""
    with open(path, "rb") as f:
        for part in parts:
            if f.readinto(part) != part.nbytes:
                raise ConfigError(f"blob {path} is shorter than its manifest promises")
        trailing = os.fstat(f.fileno()).st_size - f.tell()
    if trailing:
        raise ConfigError(f"blob {path} has {trailing} bytes past what its manifest promises")
    if sys.byteorder == "big":
        for part in parts:
            part.byteswap(inplace=True)


@contextlib.contextmanager
def replacing_dir(directory: str):
    """Yield a sibling directory to build an artifact in, and swap it in
    for ``directory`` whole once the block completes.  On an error the
    sibling is removed and ``directory`` is left as it was.  Nothing is
    fsynced: this covers a crashed process, not a lost machine."""
    directory = os.path.normpath(directory)
    tmp, old = directory + ".tmp", directory + ".old"
    shutil.rmtree(tmp, ignore_errors=True)  # left by a killed run
    os.makedirs(tmp)
    try:
        yield tmp
        if not os.path.isdir(directory):
            os.rename(tmp, directory)
            return
        shutil.rmtree(old, ignore_errors=True)
        os.rename(directory, old)
        try:
            os.rename(tmp, directory)
        except BaseException:
            os.rename(old, directory)
            raise
        shutil.rmtree(old)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
