"""The volume type, coordinate algebra, resampling and mask metrics."""
from .transform import (
    RigidTransform3,
    compose,
    euler_zyx,
    inverse,
    rotation_about,
    rotation_z,
    translation,
)
from .volume import (
    Volume3,
    centroid,
    gather_nearest,
    largest_connected_component,
    physical_to_voxel,
    require_binary,
    resample_crop,
    sample_at_physical,
    voxel_to_physical,
)
from .metrics import PreparedTruth, dice, omia, omia_bound, precision, prepare_truth, recall
from .volio import load_volume, save_volume

__all__ = [
    "RigidTransform3", "compose", "euler_zyx", "inverse", "rotation_about",
    "rotation_z", "translation",
    "Volume3", "centroid", "gather_nearest", "largest_connected_component",
    "physical_to_voxel", "require_binary", "resample_crop",
    "sample_at_physical", "voxel_to_physical",
    "PreparedTruth", "dice", "omia", "omia_bound", "precision", "prepare_truth", "recall",
    "load_volume", "save_volume",
]
