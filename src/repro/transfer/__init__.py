"""Data-movement substrate: Redis-like queue, THREDDS, Aria2, merging.

Step 1 of the paper's workflow (§III-A) is built from four pieces, all
reproduced here:

- :class:`RedisQueue` — "The Redis queue was developed to keep track of
  which files were downloaded and to distribute the work across pods."
  Implements the reliable-queue pattern (pop moves the message to a
  per-worker processing list; unacked messages are re-enqueued), so a
  crashed worker's work is never lost.
- :class:`ThreddsServer` — "THREDDS provides a data subset tool that
  allows for selection of a variable within files": catalog lookup plus
  variable subsetting that shrinks 455 GB to 246 GB.
- :class:`Aria2Downloader` — "each worker uses the open source Aria2 file
  transfer software that allows multiple parallel downloads (20 parallel
  downloads in our case)": a connection-pooled bulk downloader whose
  connections are flows on the PRP network model.
- :mod:`repro.transfer.merge` — "each worker also merges the small
  individual files into larger (Hierarchical Data Format) files" before
  pushing them to the Ceph object store.
"""

from repro.transfer.queue import RedisQueue, QueueMessage
from repro.transfer.thredds import ResolvedChunk, ThreddsServer, SubsetRequest
from repro.transfer.aria2 import Aria2Downloader, DownloadStats
from repro.transfer.merge import MergePlanner, merged_hdf_size, merge_cpu_seconds
from repro.transfer.retry import RetryPolicy, TransientFaultInjector, retry_call

__all__ = [
    "RedisQueue",
    "QueueMessage",
    "ThreddsServer",
    "SubsetRequest",
    "ResolvedChunk",
    "Aria2Downloader",
    "DownloadStats",
    "MergePlanner",
    "merged_hdf_size",
    "merge_cpu_seconds",
    "RetryPolicy",
    "TransientFaultInjector",
    "retry_call",
]
