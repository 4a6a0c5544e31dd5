"""Machine-learning substrate: the FFN, the CONNECT baseline, and timing.

The case study replaces "MATLAB functions that use a single CPU" (the
CONNECT algorithm) with "a new algorithm, Flood-Filling Network (FFN) ...
applied to NASA data using 50 NVIDIA 1080ti GPUs based on Tensorflow"
(§III).  Both sides are implemented here, for real, in NumPy:

- :mod:`repro.ml.conv3d` — vectorized 3-D convolution with full
  backpropagation (the compute kernel of the FFN), batched
  (``(N,C,D,H,W)``) and unbatched; the unbatched API is an ``N=1``
  wrapper so both paths share one numerical behaviour.
- :mod:`repro.ml.ffn` — a faithful small-scale flood-filling network:
  residual conv stack over a two-channel (image, current-mask) input,
  logit-delta output, and the moving field-of-view (FOV) inference loop
  of Januszewski et al. [20].
- :mod:`repro.ml.training` — patch-sampling minibatch SGD trainer; its
  one batched step also runs data-parallel training, where the workers
  are the shards of the batch.
- :mod:`repro.ml.inference` — whole-volume segmentation by seeded flood
  filling (one wavefront loop, ``flood_fill_multi``: one stacked FFN
  forward per merged BFS wave, with a bit-identical serial reference
  engine; ``flood_fill`` is its one-seed case), plus the shard splitter
  used by the 50-GPU fan-out.
- :mod:`repro.ml.distributed_inference` / :mod:`repro.ml.shm_pool` —
  the halo-sharded fan-out with label stitching; shards run in-process
  or on the zero-copy shared-memory worker pool.
- :mod:`repro.ml.connect` — the CONNECT baseline: threshold + union-find
  connected-component labelling in time and space, with object life-cycle
  statistics [21][22].
- :mod:`repro.ml.segmetrics` — voxel-level segmentation metrics.
- :mod:`repro.ml.perfmodel` — the 1080ti throughput model calibrated to
  the paper's reported step times (306 min training, 1133 min inference
  on 2.3e10 voxels / 50 GPUs), used when running at paper scale.
"""

from repro.ml.conv3d import (
    conv3d_forward,
    conv3d_backward,
    conv3d_forward_batch,
    conv3d_backward_batch,
    Conv3D,
)
from repro.ml.ffn import FFNConfig, FFNModel
from repro.ml.training import FFNTrainer, TrainingReport
from repro.ml.inference import (
    flood_fill,
    flood_fill_multi,
    segment_volume,
    split_shards,
)
from repro.ml.distributed_inference import (
    distributed_segment,
    stitch_labels,
    ShardSegmentation,
)
from repro.ml.shm_pool import SharedMemoryPool, ShardSpec, ShardReceipt
from repro.ml.connect import connect_segmentation, ConnectedObject, ConnectReport
from repro.ml.segmetrics import voxel_metrics, SegmentationScores
from repro.ml.perfmodel import GPUPerfModel, GTX1080TI

__all__ = [
    "conv3d_forward",
    "conv3d_backward",
    "conv3d_forward_batch",
    "conv3d_backward_batch",
    "Conv3D",
    "FFNConfig",
    "FFNModel",
    "FFNTrainer",
    "TrainingReport",
    "flood_fill",
    "flood_fill_multi",
    "segment_volume",
    "split_shards",
    "distributed_segment",
    "stitch_labels",
    "ShardSegmentation",
    "SharedMemoryPool",
    "ShardSpec",
    "ShardReceipt",
    "connect_segmentation",
    "ConnectedObject",
    "ConnectReport",
    "voxel_metrics",
    "SegmentationScores",
    "GPUPerfModel",
    "GTX1080TI",
]
