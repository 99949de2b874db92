"""Image and volume types, coordinate algebra, resampling and mask metrics."""
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
    Image2,
    Volume3,
    centroid,
    largest_connected_component,
    physical_to_voxel,
    require_binary,
    resample_crop,
    sample_at_physical,
    translate_volume,
    voxel_to_physical,
)
from .metrics import PreparedTruth, dice, omia, precision, prepare_truth, recall
from .volio import load_volume, save_pbm, save_volume

__all__ = [
    "RigidTransform3", "compose", "euler_zyx", "inverse", "rotation_about",
    "rotation_z", "translation",
    "Image2", "Volume3", "centroid", "largest_connected_component",
    "physical_to_voxel", "require_binary", "resample_crop",
    "sample_at_physical", "translate_volume", "voxel_to_physical",
    "PreparedTruth", "dice", "omia", "precision", "prepare_truth", "recall",
    "load_volume", "save_pbm", "save_volume",
]
