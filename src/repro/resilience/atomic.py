"""One atomic write path for every file the repo emits.

A crash (or an injected fault) between ``open()`` and the final
``write()`` must never leave a truncated JSON report, benchmark
artifact or cache entry behind.  Everything here funnels through
:func:`atomic_write_bytes`: the payload lands in a tempfile *in the
destination directory* (same filesystem, so the rename is atomic) and
``os.replace`` publishes it in one step — readers observe either the
old complete file or the new complete file, never a torn one.

The :class:`~repro.pipeline.store.CacheStore`, the experiment runner's
JSON emission (``--json``/``_run_meta.json``), the DSE CLI outputs and
trace/metrics snapshots all use these helpers.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional, Union

__all__ = ["atomic_write_bytes", "atomic_write_text", "atomic_write_json"]


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` via tempfile + rename (POSIX-atomic)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> Path:
    """Atomic drop-in for ``Path.write_text``."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(
    path: Union[str, Path],
    obj: Any,
    indent: Optional[int] = None,
    sort_keys: bool = False,
) -> Path:
    """Serialize ``obj`` as JSON and publish it atomically."""
    text = json.dumps(obj, indent=indent, sort_keys=sort_keys)
    if indent is not None:
        text += "\n"
    return atomic_write_text(path, text)
