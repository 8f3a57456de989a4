"""One atomic writer for the files a run must not lose.

Forum datasets, link checkpoints and index snapshots all land on disk
the same way: the bytes go to a temporary file beside the target,
which is fsynced and then renamed over it.  A crash or a failed write
(a full disk, an I/O error) therefore leaves the previous version of
the target intact and never a torn file under its name::

    with atomic_write("dm.snap") as handle:
        handle.write(payload)

The temporary file is named ``<target>.<random>.tmp`` and created
exclusively, so concurrent writers never share one.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from pathlib import Path
from typing import BinaryIO, Iterator, Union


@contextlib.contextmanager
def atomic_write(path: Union[str, os.PathLike]) -> Iterator[BinaryIO]:
    """Yield a binary handle whose bytes replace *path* on success.

    On a clean exit the handle is flushed, fsynced and renamed over
    *path*.  On any exception the temporary file is unlinked and the
    exception re-raised; there is no retry.  Missing parent
    directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(4)}.tmp")
    # Not tempfile.mkstemp: its files are private (0600), while a
    # dataset or checkpoint should get the umask's usual mode.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
