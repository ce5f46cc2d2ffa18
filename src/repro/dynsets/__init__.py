"""Dynamic sets: the distributed-file-system layer of §1.1.

Directories are collections whose entries are scattered across nodes;
``setOpen``/``setIterate``/``setClose`` stream members via a parallel,
closest-first, optimistically-retrying prefetcher; ``weak_ls`` and
``strict_ls`` make the paper's motivating comparison concrete.
"""

from . import namespace
from .dynamic_set import DynSetHandle, set_open, set_open_dir
from .fileops import StatResult, read_file, stat
from .filesystem import FileMeta, FileSystem, dir_collection_id
from .find import FindMatch, FindResult, weak_find
from .ls import LsEntry, LsResult, strict_ls, weak_ls

__all__ = [
    "DynSetHandle",
    "FileMeta",
    "FindMatch",
    "FindResult",
    "FileSystem",
    "LsEntry",
    "LsResult",
    "StatResult",
    "dir_collection_id",
    "namespace",
    "set_open",
    "set_open_dir",
    "read_file",
    "stat",
    "strict_ls",
    "weak_find",
    "weak_ls",
]
