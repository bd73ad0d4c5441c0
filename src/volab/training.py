"""MSE-regression training: AdamW with decoupled weight decay, per-epoch
cosine learning-rate decay, gradient accumulation, best-so-far early
stopping, lowest-validation-MSE checkpointing, and patient-grouped
cross-validation."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .artifacts import is_count, is_real, require
from .models import build_model
from .tensor import NumericError, Tensor, backward, mul, sub, tsum
from .volume import crop_or_pad, extract_bscan, read_volume, zscore


@dataclass(frozen=True)
class TrainConfig:
    lr_max: float = 1e-3
    lr_min: float = 1e-5
    weight_decay: float = 0.01
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    physical_batch: int = 16
    accumulation_steps: int = 8
    max_epochs: int = 50
    min_delta: float = 1e-3
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("lr_max", "lr_min", "weight_decay", "eps", "min_delta"):
            value = getattr(self, name)
            require(is_real(value) and value >= 0, name, value,
                    "a finite number >= 0")
        for name in ("physical_batch", "accumulation_steps", "max_epochs",
                     "patience"):
            require(is_count(getattr(self, name)), name, getattr(self, name),
                    "an integer >= 1")
        betas = self.betas
        require(isinstance(betas, (list, tuple)) and len(betas) == 2
                and all(is_real(b) and 0.0 <= b < 1.0 for b in betas),
                "betas", betas, "two numbers in [0, 1)")
        object.__setattr__(self, "betas", tuple(betas))


def _sse(pred, target):
    """Sum of squared errors as a differentiable scalar; ``train_fold``
    scales it by the accumulation group's sample count."""
    if pred.shape != target.shape:
        raise ValueError(f"length mismatch: pred {pred.shape} vs target "
                         f"{target.shape}")
    if pred.size == 0:
        raise ValueError("empty prediction vector")
    diff = sub(pred, target)
    return tsum(mul(diff, diff))


def cosine_lr(step, total_steps, lr_max, lr_min):
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0
                                               + math.cos(math.pi * step
                                                          / total_steps))


class AdamW:
    """Adam with decoupled weight decay: the decay shrink is applied to the
    parameter before the moment update each step."""

    def __init__(self, named_params, weight_decay=0.0, betas=(0.9, 0.999),
                 eps=1e-8):
        self.named_params = list(named_params)
        self.weight_decay = float(weight_decay)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in self.named_params]
        self.v = [np.zeros_like(p.data) for _, p in self.named_params]

    def zero_grad(self):
        for _, p in self.named_params:
            p.grad = None

    def step(self, lr):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for i, (name, p) in enumerate(self.named_params):
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for {name}")
            if self.weight_decay:
                p.data -= lr * self.weight_decay * p.data
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / c1
            v_hat = self.v[i] / c2
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


class EarlyStopper:
    """Stop when the best-so-far value fails to improve by min_delta for
    `patience` consecutive epochs."""

    def __init__(self, min_delta=1e-3, patience=3):
        self.min_delta = float(min_delta)
        self.patience = int(patience)
        self.best = math.inf
        self.stale = 0

    def update(self, value):
        if self.best - value >= self.min_delta:
            self.stale = 0
        else:
            self.stale += 1
        if value < self.best:
            self.best = value
        return self.stale >= self.patience


@dataclass
class Sample:
    """One preprocessed training example."""
    patient_id: str
    eye_id: str
    x: np.ndarray
    y: float


def make_input(volume, model_cfg):
    """Volume -> network input array (channels, *spatial).

    3-D families and hybrids take the z-scored volume cropped/padded to the
    configured shape; 2-D families take the middle first-axis slice,
    bilinearly resized when the configured shape differs.
    """
    vol = zscore(volume)
    if model_cfg.family.startswith("hybrid") or model_cfg.input_dims == 3:
        out = crop_or_pad(vol, model_cfg.input_shape).data
    else:
        out = extract_bscan(vol, vol.shape[0] // 2, model_cfg.input_shape)
    return out[None].astype(np.float32)


def samples_from_records(records, model_cfg, root=None):
    """Load + preprocess every manifest record into Samples labelled with
    the continuous soft label p_kc."""
    out = []
    for rec in records:
        vol = read_volume(os.path.join(root or "", rec.volume_path))
        out.append(Sample(rec.patient_id, rec.eye_id,
                          make_input(vol, model_cfg), rec.p_kc))
    return out


@dataclass
class FoldResult:
    best_epoch: int
    best_val_mse: float
    history: list = field(default_factory=list)  # (epoch, train, val, lr)


def _stack(samples, idx):
    x = np.stack([samples[i].x for i in idx])
    y = np.array([samples[i].y for i in idx], dtype=np.float32)
    return x, y


def predict(model, samples, batch=16):
    """Eval-mode predictions for a list of Samples, from the frozen model."""
    preds = []
    with model.frozen():
        for start in range(0, len(samples), batch):
            idx = range(start, min(start + batch, len(samples)))
            x, _ = _stack(samples, list(idx))
            preds.append(model.forward(Tensor(x)).pred.data)
    return np.concatenate(preds) if preds else np.zeros(0, np.float32)


def train_fold(model, train_samples, val_samples, cfg):
    """Train one fold; the model ends loaded with its best-epoch weights.

    Optimizer steps fire once per accumulation group; gradients from the
    group's micro-batches are summed as SSE and divided by the group's
    sample count, which equals averaging over the effective batch.
    """
    if not train_samples or not val_samples:
        raise ValueError("train and validation sets must be nonempty")
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.named_parameters(), weight_decay=cfg.weight_decay,
                betas=cfg.betas, eps=cfg.eps)
    stopper = EarlyStopper(cfg.min_delta, cfg.patience)
    n = len(train_samples)
    group_size = cfg.physical_batch * cfg.accumulation_steps
    history = []
    best_val = math.inf
    best_epoch = 0
    best_state = None
    for epoch in range(1, cfg.max_epochs + 1):
        lr = cosine_lr(epoch - 1, cfg.max_epochs, cfg.lr_max, cfg.lr_min)
        order = rng.permutation(n)
        sse_epoch = 0.0
        for g_start in range(0, n, group_size):
            group = order[g_start:g_start + group_size]
            opt.zero_grad()
            scale = 1.0 / len(group)
            for m_start in range(0, len(group), cfg.physical_batch):
                micro = group[m_start:m_start + cfg.physical_batch]
                x, y = _stack(train_samples, micro)
                try:
                    res = model.forward(Tensor(x), training=True, rng=rng)
                    sse = _sse(res.pred, Tensor(y))
                    backward(mul(sse, Tensor(np.asarray(
                        scale, dtype=sse.data.dtype))))
                except NumericError as exc:
                    raise NumericError(
                        f"training aborted at epoch {epoch}, sample offset "
                        f"{g_start + m_start}: {exc}") from exc
                sse_epoch += float(sse.data)
            opt.step(lr)
        train_mse = sse_epoch / n
        val_pred = predict(model, val_samples, batch=cfg.physical_batch)
        val_targets = np.array([s.y for s in val_samples], dtype=np.float64)
        val_mse = float(np.mean((val_pred - val_targets) ** 2))
        if not math.isfinite(val_mse):
            raise NumericError(f"non-finite validation MSE at epoch {epoch}")
        history.append((epoch, train_mse, val_mse, lr))
        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            best_state = {k: v.copy()
                          for k, v in model.state_arrays().items()}
        if stopper.update(val_mse):
            break
    state = model.state_arrays()
    for name, arr in best_state.items():
        state[name][...] = arr
    return FoldResult(best_epoch=best_epoch, best_val_mse=best_val,
                      history=history)


HISTORY_HEADER = ["epoch", "train_mse", "val_mse", "lr"]


def cross_validate(records, samples, model_cfg, train_cfg, split,
                   n_workers=1):
    """Patient-grouped k-fold over ``split``, the per-fold record indices
    of ``stratified_patient_split``: fold k is the test set, fold (k+1)
    mod len(split) the validation set, the rest train, and the model and
    permutation seeds are offset by k. Every fold trains from scratch, on
    the calling thread when n_workers is 1 and otherwise on a pool of
    n_workers threads; folds share no state, so n_workers never changes a
    result. Returns (FoldResult, model, test_idx, preds) per fold, in
    order."""
    if len(records) != len(samples):
        raise ValueError("records/samples misaligned")
    n_folds = len(split)

    def run(k):
        test_idx = split[k]
        val_idx = split[(k + 1) % n_folds]
        held = set(test_idx) | set(val_idx)
        train_idx = [i for i in range(len(records)) if i not in held]
        model = build_model(model_cfg, seed=train_cfg.seed + k)
        res = train_fold(model, [samples[i] for i in train_idx],
                         [samples[i] for i in val_idx],
                         replace(train_cfg, seed=train_cfg.seed + k))
        preds = predict(model, [samples[i] for i in test_idx],
                        batch=train_cfg.physical_batch)
        return res, model, test_idx, preds

    if n_workers == 1:
        # on the calling thread: a pool thread's malloc arena keeps what
        # training freed, where later work on the main thread cannot
        # reuse it (a 72-phantom cnn3d train-then-analyze loop on a 2-core
        # host peaked at 440 MiB this way, 730 MiB on a one-thread pool)
        return [run(k) for k in range(n_folds)]
    # n_workers folds are live at once, each with its model and tape, and
    # that sets the peak RSS, not the arenas: on a 2-core host the desk
    # run peaked at 358 MiB with 2 workers against 247 MiB with 1, and
    # MALLOC_ARENA_MAX=1 cut a 2-worker peak only from 518-544 to 512 MiB
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(run, range(n_folds)))


__all__ = [
    "AdamW", "EarlyStopper", "FoldResult",
    "HISTORY_HEADER", "Sample", "TrainConfig", "cosine_lr", "cross_validate",
    "make_input", "predict", "samples_from_records",
    "train_fold",
]
