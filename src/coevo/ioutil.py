"""Small file-system helpers shared by the CLI and the experiment harness."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename in the same dir."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
