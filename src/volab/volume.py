"""Volumetric preprocessing, phantom synthesis, and VOLB files.

Volumes are float32 arrays with per-axis physical spacing in millimeters.
Physical position of voxel index i along an axis is i * spacing (voxel
centers, origin at index 0). All interpolation is trilinear.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from volab.artifacts import (DataError, Packer, Unpacker, is_count, is_real,
                             require)
from volab.labels import GmmModel, gmm_posterior


@dataclass
class Volume:
    data: np.ndarray               # (d0, d1, d2) float32
    spacing: tuple[float, float, float]  # mm per voxel along each axis

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 3:
            raise DataError(f"volume must be 3-D, got shape {self.data.shape}")
        self.spacing = tuple(float(s) for s in self.spacing)
        if len(self.spacing) != 3 or any(s <= 0 for s in self.spacing):
            raise DataError(f"bad spacing {self.spacing}")

    @property
    def shape(self):
        return self.data.shape


# ---------------------------------------------------------------------------
# VOLB binary format

VOLUME_MAGIC = b"VOLB"
VOLUME_VERSION = 1


def write_volume(path, volume: Volume) -> None:
    """magic, version u8, dims 3xu32, spacing 3xf32, then f32 voxels in
    slice-major (C) order."""
    out = Packer(VOLUME_MAGIC)
    out.fields("B3I3f", VOLUME_VERSION, *volume.data.shape, *volume.spacing)
    out.array(volume.data)
    out.save(path)


def read_volume(path) -> Volume:
    src = Unpacker(path, VOLUME_MAGIC, "volume")
    version, *header = src.fields("B3I3f")
    if version != VOLUME_VERSION:
        raise DataError(f"{path}: unsupported volume version {version}")
    data = src.array(header[:3])
    src.finish()
    return Volume(data, header[3:])


# ---------------------------------------------------------------------------
# geometry


def resample_trilinear(volume: Volume, target_spacing) -> Volume:
    """Resample onto an isotropic-or-not target spacing grid.

    Output dims are round(dim * spacing / target) (at least 1). Output voxel
    j samples input coordinate j * target / source with edge clamping, which
    reproduces trilinear functions of physical position exactly away from
    the clamped border.
    """
    if np.isscalar(target_spacing):
        target_spacing = (target_spacing,) * 3
    target_spacing = tuple(float(s) for s in target_spacing)
    if any(s <= 0 for s in target_spacing):
        raise DataError(f"bad target spacing {target_spacing}")
    out_dims = tuple(max(1, int(round(n * s / t)))
                     for n, s, t in zip(volume.shape, volume.spacing, target_spacing))
    axes = [np.arange(n, dtype=np.float64) * t / s
            for n, s, t in zip(out_dims, volume.spacing, target_spacing)]
    coords = np.meshgrid(*axes, indexing="ij")
    out = ndimage.map_coordinates(volume.data.astype(np.float64), coords,
                                  order=1, mode="nearest")
    return Volume(out.astype(np.float32), target_spacing)


def crop_or_pad(volume: Volume, target_shape) -> Volume:
    """Center crop or symmetric zero-pad each axis to the target shape.

    Cropping keeps [floor((src-tgt)/2), ...); padding places the original at
    offset floor((tgt-src)/2), so 49 -> 80 puts it at indices 15..63.
    """
    target_shape = tuple(int(n) for n in target_shape)
    if len(target_shape) != 3 or any(n <= 0 for n in target_shape):
        raise DataError(f"bad target shape {target_shape}")
    data = volume.data
    for axis, (src, tgt) in enumerate(zip(data.shape, target_shape)):
        if tgt <= src:
            off = (src - tgt) // 2
            sl = [slice(None)] * 3
            sl[axis] = slice(off, off + tgt)
            data = data[tuple(sl)]
        else:
            before = (tgt - src) // 2
            pad = [(0, 0)] * 3
            pad[axis] = (before, tgt - src - before)
            data = np.pad(data, pad)
    return Volume(data.copy(), volume.spacing)


def zscore(volume: Volume, eps=1e-8) -> Volume:
    """Instance z-score over all voxels (population statistics)."""
    mu = float(volume.data.mean())
    sd = float(volume.data.std())
    if sd <= eps:
        raise DataError(f"degenerate volume: intensity std {sd} <= {eps}")
    return Volume((volume.data - mu) / sd, volume.spacing)


def _resize_bilinear_2d(img, target_hw):
    th, tw = target_hw
    h, w = img.shape
    # align-corners mapping so equal sizes reduce to a pure copy
    ys = (np.arange(th) * ((h - 1) / (th - 1))) if th > 1 else np.zeros(1)
    xs = (np.arange(tw) * ((w - 1) / (tw - 1))) if tw > 1 else np.zeros(1)
    grid = np.meshgrid(ys, xs, indexing="ij")
    return ndimage.map_coordinates(img.astype(np.float64), grid,
                                   order=1, mode="nearest")


def extract_bscan(volume: Volume, slice_index: int, target_hw=(224, 224)):
    """Pull one cross-sectional slice (axis 0) and resize it bilinearly."""
    n = volume.shape[0]
    if not 0 <= slice_index < n:
        raise DataError(f"slice {slice_index} outside volume with {n} slices")
    img = volume.data[slice_index].astype(np.float64)
    if tuple(target_hw) == img.shape:
        return img.astype(np.float32)
    return _resize_bilinear_2d(img, target_hw).astype(np.float32)


# ---------------------------------------------------------------------------
# phantom synthesis


@dataclass
class PhantomSpec:
    shape: tuple[int, int, int] = (32, 32, 32)
    spacing: tuple[float, float, float] = (0.5, 0.5, 0.5)
    anomaly_amplitude: float = 1.0
    anomaly_sparsity: float = 0.2   # fraction of voxels carrying perturbation
    noise_sigma: float = 0.05
    label_gmm: GmmModel = field(default_factory=lambda: default_phantom_gmm())

    def __post_init__(self):
        require(isinstance(self.shape, (list, tuple)) and len(self.shape) == 3
                and all(map(is_count, self.shape)), "shape", self.shape,
                "three integers >= 1")
        for name in ("anomaly_amplitude", "noise_sigma"):
            value = getattr(self, name)
            require(is_real(value) and value >= 0, name, value,
                    "a finite number >= 0")
        require(is_real(self.anomaly_sparsity)
                and 0.0 < self.anomaly_sparsity < 1.0, "anomaly_sparsity",
                self.anomaly_sparsity, "in (0, 1)")


def default_phantom_gmm() -> GmmModel:
    """Label mixture over (perturbation energy, support spread). The modes
    differ only along energy, so risk is monotone in anomaly amplitude."""
    return GmmModel(weights=[0.5, 0.5],
                    means=[[0.0, 0.55], [1.0, 0.55]],
                    covariances=[np.diag([0.03, 0.05]), np.diag([0.03, 0.05])])


@functools.lru_cache(maxsize=4)
def _layered_background(shape):
    """The same for every volume of a shape, so built once and read-only."""
    d0, d1, d2 = shape
    s = np.linspace(-0.5, 0.5, d0)[:, None, None]
    y = np.linspace(0.0, 1.0, d1)[None, :, None]
    x = np.linspace(-0.5, 0.5, d2)[None, None, :]
    surface = 0.45 + 0.15 * (x ** 2 + s ** 2)   # shallow dome
    thickness = 0.08
    background = np.exp(-0.5 * ((y - surface) / thickness) ** 2)
    background.flags.writeable = False
    return background


def phantom_features(volume_shape, support, perturbation):
    """2-D label features: RMS perturbation energy over the volume and the
    RMS support radius normalized by the half-diagonal."""
    energy = float(np.sqrt(np.mean(perturbation ** 2)))
    coords = np.argwhere(support)
    centroid = coords.mean(axis=0)
    spread = float(np.sqrt(np.mean(((coords - centroid) ** 2).sum(axis=1))))
    half_diag = 0.5 * float(np.linalg.norm(volume_shape))
    return np.array([energy, spread / half_diag])


def generate_phantom(spec: PhantomSpec, rng):
    """Synthesize one labeled phantom.

    Returns (Volume, p_kc, features). The anomaly is a smooth random field
    restricted to its top-|sparsity| quantile support, normalized to unit
    RMS over the volume, then scaled by the amplitude; features and the
    label are computed from the clean perturbation before sensor noise.
    """
    shape = tuple(spec.shape)
    background = _layered_background(shape)

    field_ = ndimage.gaussian_filter(rng.standard_normal(shape), 2.0, mode="nearest")
    cut = np.quantile(field_, 1.0 - spec.anomaly_sparsity)
    support = field_ > cut
    anomaly = np.where(support, field_ - cut, 0.0)
    rms = np.sqrt(np.mean(anomaly ** 2))
    if rms <= 0:
        raise DataError("degenerate anomaly support")
    anomaly = anomaly / rms * spec.anomaly_amplitude

    x = phantom_features(shape, support, anomaly)
    p_kc = gmm_posterior(x, spec.label_gmm)

    noise = spec.noise_sigma * rng.standard_normal(shape)
    data = (background + anomaly + noise).astype(np.float32)
    return Volume(data, spec.spacing), float(p_kc), x
