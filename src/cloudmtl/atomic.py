"""Atomic file replacement for every file the package writes.

A writer fills a temporary file beside the target and renames it over the
target only once everything is written, so a failure midway (an exception,
a full disk) leaves any earlier file at that path untouched and no partial
file behind.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from typing import IO, Iterator


@contextmanager
def atomic_write(path: str) -> Iterator[IO[str]]:
    """Open ``path`` for UTF-8 text with LF newlines, replacing it on success.

    The text goes to ``<path>.<pid>.tmp`` in the same directory, so the final
    ``os.replace`` is a rename within one file system. On any exception the
    temporary file is removed and the exception propagates.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    f = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_text(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` by :func:`atomic_write`."""
    with atomic_write(path) as f:
        f.write(text)
