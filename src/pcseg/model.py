"""The correlation-refinement segmentation model and its training loop.

Pipeline per episode: a point-wise MLP stub embeds every point of the
support and query clouds; farthest-point seeds plus nearest-seed
clustering turn each support class region (and the shared background)
into a fixed number of prototype vectors; the query's cosine
correlations to all prototypes form a query x class x channel tensor;
stacked refinement layers run linear attention first across query
points, then across classes, recalibrating the background slice each
time with guidance from momentum-learned prototypes of the training
classes; a per-point decoder turns the refined tensor into segmentation
logits. In training only, a separate head predicts training-class
membership from the raw query features.

Prototypes for the training classes are non-parametric: zero-initialized
rows updated by masked average pooling with momentum, the first update
assigning directly so a fresh row never drags guidance toward zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import AttentionParams, multi_head_linear_attention
from .episodes import Episode, ClassSplit, confusion_counts, generate_episode, iou_from_counts
from .geometry import EmptyMaskError, PointCloud, cluster_to_seeds, farthest_point_sample
from .seeding import derive_seed
from .tensor import Parameter, ParameterGroup, Tensor


class NonFiniteLossError(ArithmeticError):
    """Training or evaluation produced a NaN or infinite loss, gradient or logit."""


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass
class MLPParams(ParameterGroup):
    """Two affine layers with an ELU between them."""

    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter

    @classmethod
    def create(cls, rng, prefix: str, d_in: int, d_hidden: int, d_out: int) -> "MLPParams":
        return cls(
            Parameter(T.glorot_uniform(rng, d_in, d_hidden), f"{prefix}.w1"),
            Parameter(np.zeros(d_hidden), f"{prefix}.b1"),
            Parameter(T.glorot_uniform(rng, d_hidden, d_out), f"{prefix}.w2"),
            Parameter(np.zeros(d_out), f"{prefix}.b2"),
        )


@dataclass
class LayerNormParams(ParameterGroup):
    gain: Parameter
    bias: Parameter

    @classmethod
    def create(cls, prefix: str, dim: int) -> "LayerNormParams":
        return cls(Parameter(np.ones(dim), f"{prefix}.gain"), Parameter(np.zeros(dim), f"{prefix}.bias"))


@dataclass
class RefineLayerParams(ParameterGroup):
    """One refinement layer: point attention, class attention, their MLPs,
    pre-norms, and the background-calibration linear map (2D -> D)."""

    ln_point_attn: LayerNormParams
    point_attn: AttentionParams
    ln_point_mlp: LayerNormParams
    point_mlp: MLPParams
    bg_fc_w: Parameter
    bg_fc_b: Parameter
    ln_class_attn: LayerNormParams
    class_attn: AttentionParams
    ln_class_mlp: LayerNormParams
    class_mlp: MLPParams

    @classmethod
    def create(cls, rng, prefix: str, dim: int, heads: int) -> "RefineLayerParams":
        fc_w = Parameter(T.glorot_uniform(rng, 2 * dim, dim), f"{prefix}.bg_fc.w")
        fc_b = Parameter(np.zeros(dim), f"{prefix}.bg_fc.b")
        return cls(
            ln_point_attn=LayerNormParams.create(f"{prefix}.ln_point_attn", dim),
            point_attn=AttentionParams.create(rng, dim, heads, f"{prefix}.point_attn"),
            ln_point_mlp=LayerNormParams.create(f"{prefix}.ln_point_mlp", dim),
            point_mlp=MLPParams.create(rng, f"{prefix}.point_mlp", dim, dim, dim),
            bg_fc_w=fc_w,
            bg_fc_b=fc_b,
            ln_class_attn=LayerNormParams.create(f"{prefix}.ln_class_attn", dim),
            class_attn=AttentionParams.create(rng, dim, heads, f"{prefix}.class_attn"),
            ln_class_mlp=LayerNormParams.create(f"{prefix}.ln_class_mlp", dim),
            class_mlp=MLPParams.create(rng, f"{prefix}.class_mlp", dim, dim, dim),
        )


@dataclass
class ModelParams(ParameterGroup):
    """All trainable parameters. Their shapes do not depend on n_way; that
    says nothing of how a model trained at one way scores at another."""

    n_prototypes: int
    stub: MLPParams
    proj: MLPParams
    layers: list[RefineLayerParams]
    decoder: MLPParams
    base_head: MLPParams

    @classmethod
    def create(cls, rng, dim: int, n_prototypes: int, n_layers: int, heads: int, n_base: int) -> "ModelParams":
        return cls(
            n_prototypes=n_prototypes,
            stub=MLPParams.create(rng, "stub", 6, dim, dim),
            proj=MLPParams.create(rng, "proj", n_prototypes, dim, dim),
            layers=[RefineLayerParams.create(rng, f"layers.{i}", dim, heads) for i in range(n_layers)],
            decoder=MLPParams.create(rng, "decoder", dim, dim, 1),
            base_head=MLPParams.create(rng, "base_head", dim, dim, n_base + 1),
        )

    @classmethod
    def for_config(cls, rng, config, n_base: int) -> "ModelParams":
        """The model a run config describes, for `n_base` training classes."""
        return cls.create(rng, dim=config.dim, n_prototypes=config.n_prototypes,
                          n_layers=config.hca_layers, heads=config.heads, n_base=n_base)


# ---------------------------------------------------------------------------
# prototypes
# ---------------------------------------------------------------------------

@dataclass
class BasePrototypeBank:
    """Momentum-updated prototype per training class, plus seen-counts.

    Rows with update_count 0 are exactly zero and never contribute to
    guidance.
    """

    prototypes: np.ndarray
    update_counts: np.ndarray
    momentum: float
    class_ids: tuple[int, ...]

    def __post_init__(self):
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError(f"momentum must lie in [0, 1], got {self.momentum}")

    @classmethod
    def zeros(cls, class_ids, dim: int, momentum: float) -> "BasePrototypeBank":
        class_ids = tuple(int(c) for c in class_ids)
        return cls(
            prototypes=np.zeros((len(class_ids), dim)),
            update_counts=np.zeros(len(class_ids), dtype=np.int64),
            momentum=momentum,
            class_ids=class_ids,
        )

    def apply_update(self, class_id: int, new_vec: np.ndarray) -> None:
        """Momentum step toward `new_vec`; the very first update assigns it."""
        row = self.class_ids.index(int(class_id))
        new_vec = np.asarray(new_vec, dtype=np.float64).reshape(-1)
        if self.update_counts[row] == 0:
            self.prototypes[row] = new_vec
        else:
            mu = self.momentum
            self.prototypes[row] = mu * self.prototypes[row] + (1.0 - mu) * new_vec
        self.update_counts[row] += 1

    def zeroed(self) -> "BasePrototypeBank":
        """Ablation copy: every row forgotten, so guidance is all zeros."""
        return BasePrototypeBank.zeros(self.class_ids, self.prototypes.shape[1], self.momentum)


def backbone_stub(cloud: PointCloud, stub: MLPParams) -> Tensor:
    """Point-wise MLP over (xyz, rgb): the stand-in feature extractor."""
    return T.mlp_forward(Tensor(np.hstack([cloud.positions, cloud.colors])), stub)


def extract_prototypes(features_per_shot, masks_per_shot, coords_per_shot, n_prototypes: int) -> Tensor:
    """Prototypes for one class from its support shots.

    Per shot: floor(n_prototypes / k) farthest-point seeds on the masked
    coordinates (at least 1), nearest-seed clustering, and one mean
    feature per cluster. Shot prototypes are concatenated; if fewer than
    `n_prototypes` come out, the earliest rows are cycled to fill, and
    any excess is trimmed. Shots with empty masks are skipped; all empty
    raises EmptyMaskError.
    """
    if n_prototypes < 1:
        raise ValueError(f"n_prototypes must be >= 1, got {n_prototypes}")
    if not (len(features_per_shot) == len(masks_per_shot) == len(coords_per_shot)):
        raise ValueError("per-shot lists must have equal length")
    k = len(features_per_shot)
    per_shot = max(1, n_prototypes // k)
    pieces = []
    for feats, mask, coords in zip(features_per_shot, masks_per_shot, coords_per_shot):
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            continue
        seeds = farthest_point_sample(coords, mask, per_shot)
        groups = cluster_to_seeds(coords, mask, seeds)
        pieces.append(T.group_mean_rows(feats, groups))
    if not pieces:
        raise EmptyMaskError("every support shot had an empty mask")
    merged = T.concat(pieces, axis=0) if len(pieces) > 1 else pieces[0]
    total = merged.shape[0]
    return T.take_rows(merged, [i % total for i in range(n_prototypes)])


# ---------------------------------------------------------------------------
# correlations and refinement
# ---------------------------------------------------------------------------

def compute_correlations(query_features: Tensor, protos: list[Tensor], proj: MLPParams) -> Tensor:
    """Cosine correlations of every query point to every class's prototypes
    (foreground ways first, background last), stacked per class and
    projected to D channels: N_Q x N_C x D."""
    n_q = query_features.shape[0]
    slices = []
    for mat in protos:
        sims = T.cosine_rows(query_features, mat)
        slices.append(T.reshape(sims, (n_q, 1, mat.shape[0])))
    stacked = T.concat(slices, axis=1)
    return T.mlp_forward(stacked, proj)


def base_guidance(query_features: Tensor, bank: BasePrototypeBank, excluded) -> Tensor:
    """Per-query-point max cosine similarity to the eligible bank rows.

    Rows are eligible when they have been updated at least once and their
    class is not excluded. With no eligible rows the guidance is zero.
    """
    excluded = {int(c) for c in excluded}
    rows = [
        r
        for r, cid in enumerate(bank.class_ids)
        if bank.update_counts[r] > 0 and cid not in excluded
    ]
    if not rows:
        return Tensor(np.zeros(query_features.shape[0]))
    sims = T.cosine_rows(query_features, Tensor(bank.prototypes[rows]))
    return T.max_pool_rows(sims)


def calibrate_background(corr: Tensor, guide: Tensor, fc_w: Parameter, fc_b: Parameter) -> Tensor:
    """Replace the background slice (last class) with fc([background, guide]).

    Foreground slices pass through bit-identical.
    """
    n_q, n_c, dim = corr.shape
    if guide.shape != (n_q,):
        raise ValueError(f"guide must have shape ({n_q},), got {guide.shape}")
    bg = T.reshape(T.narrow(corr, 1, n_c - 1, 1), (n_q, dim))
    guide_mat = T.einsum("n,d->nd", guide, Tensor(np.ones(dim)))
    new_bg = T.affine(T.concat([bg, guide_mat], axis=1), fc_w, fc_b)
    fg = T.narrow(corr, 1, 0, n_c - 1)
    return T.concat([fg, T.reshape(new_bg, (n_q, 1, dim))], axis=1)


def apply_refine_layer(corr: Tensor, guide: Tensor, lp: RefineLayerParams) -> Tensor:
    """One refinement layer on an N_Q x N_C x D correlation tensor.

    Pre-norm residual blocks: attention across query points (per class
    slice), a point-wise MLP, background recalibration, attention across
    classes (per query point), and another MLP. Output layout is again
    N_Q x N_C x D.
    """
    t = T.swap_axes(corr, 0, 1)  # (N_C, N_Q, D): attend across points
    t = T.add(t, multi_head_linear_attention(T.layer_norm(t, lp.ln_point_attn.gain, lp.ln_point_attn.bias), lp.point_attn))
    t = T.add(t, T.mlp_forward(T.layer_norm(t, lp.ln_point_mlp.gain, lp.ln_point_mlp.bias), lp.point_mlp))
    c = T.swap_axes(t, 0, 1)  # (N_Q, N_C, D): attend across classes
    c = calibrate_background(c, guide, lp.bg_fc_w, lp.bg_fc_b)
    c = T.add(c, multi_head_linear_attention(T.layer_norm(c, lp.ln_class_attn.gain, lp.ln_class_attn.bias), lp.class_attn))
    c = T.add(c, T.mlp_forward(T.layer_norm(c, lp.ln_class_mlp.gain, lp.ln_class_mlp.bias), lp.class_mlp))
    return c


# ---------------------------------------------------------------------------
# forward / loss
# ---------------------------------------------------------------------------

def forward(episode: Episode, params: ModelParams, bank: BasePrototypeBank, phase: str):
    """Segmentation logits (N_Q x (n_way+1), background first) and the
    backbone features of the episode's clouds: every support shot, way by
    way, then the query last."""
    if phase not in ("train", "test"):
        raise ValueError(f"phase must be 'train' or 'test', got {phase!r}")
    support_feats = [
        [backbone_stub(cloud, params.stub) for cloud, _ in way] for way in episode.support
    ]

    fg_protos = []
    for way, feats in zip(episode.support, support_feats):
        fg_protos.append(
            extract_prototypes(
                feats,
                [mask for _, mask in way],
                [cloud.positions for cloud, _ in way],
                params.n_prototypes,
            )
        )
    # Background prototypes share the budget across every support cloud.
    all_feats = [f for shots in support_feats for f in shots]
    all_inv = [~mask for way in episode.support for _, mask in way]
    all_coords = [cloud.positions for way in episode.support for cloud, _ in way]
    bg_protos = extract_prototypes(all_feats, all_inv, all_coords, params.n_prototypes)
    protos = fg_protos + [bg_protos]

    query_features = backbone_stub(episode.query, params.stub)
    excluded = set(episode.target_classes) if phase == "train" else set()
    guide = base_guidance(query_features, bank, excluded)

    corr = compute_correlations(query_features, protos, params.proj)
    for lp in params.layers:
        corr = apply_refine_layer(corr, guide, lp)

    n_q, n_c = corr.shape[0], corr.shape[1]
    decoded = T.reshape(T.mlp_forward(corr, params.decoder), (n_q, n_c))
    # Tensor class order is (ways..., background); ground truth uses 0 for
    # background, so move the background column to the front.
    seg_logits = T.concat([T.narrow(decoded, 1, n_c - 1, 1), T.narrow(decoded, 1, 0, n_c - 1)], axis=1)
    return seg_logits, all_feats + [query_features]


def loss(seg_logits: Tensor, base_logits: Tensor, query_gt, base_gt) -> Tensor:
    """Unweighted sum of the two cross-entropies."""
    return T.add(T.cross_entropy(base_logits, base_gt), T.cross_entropy(seg_logits, query_gt))


def base_targets(labels, class_ids) -> np.ndarray:
    """Map raw labels to training-class targets: row index + 1, or 0 for
    anything that is not a training class."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros_like(labels)
    for row, cid in enumerate(class_ids):
        out[labels == cid] = row + 1
    return out


# ---------------------------------------------------------------------------
# training and evaluation
# ---------------------------------------------------------------------------

def episode_stream(pool, split: ClassSplit, phase: str, config, seed: int, n: int):
    """Episodes 0..n-1 of the phase's seeded stream at the config's way,
    shot, foreground floor and point cap; episode i is built from
    `derive_seed(seed, stream, i)`. The phase picks the stream: `train`
    is what `meta_train` draws at the config's seed, `test` what
    `evaluate` scores at its `seed`."""
    stream = "episodes" if phase == "train" else "eval"
    for i in range(n):
        yield generate_episode(
            pool, split, phase, config.n_way, config.k_shot, config.min_fg_points, config.max_points,
            derive_seed(seed, stream, i),
        )


@dataclass
class TrainResult:
    params: ModelParams
    bank: BasePrototypeBank
    losses: list[float] = field(default_factory=list)


def _update_bank_from_episode(bank: BasePrototypeBank, episode: Episode, features) -> None:
    """One momentum step per training class present in the episode.

    Each cloud (every support shot plus the query, in `forward`'s feature
    order) contributes one masked average; a class seen in several clouds
    gets their plain average before the single momentum step.
    """
    clouds = [cloud for way in episode.support for cloud, _ in way] + [episode.query]
    for class_id in bank.class_ids:
        pooled = []
        for cloud, feat in zip(clouds, features):
            mask = cloud.labels == class_id
            if mask.any():
                pooled.append(feat.data[mask].mean(axis=0))
        if pooled:
            bank.apply_update(class_id, np.mean(pooled, axis=0))


def meta_train(pool, split: ClassSplit, config) -> TrainResult:
    """Episodic training on the train half of the split.

    Per episode: forward in train phase (guidance excludes the episode's
    targets), the base head on the query features, backprop the summed
    cross-entropy, one AdamW step, then a bank update from the support
    and query features. Raises NonFiniteLossError with the episode index
    if the loss or a gradient degenerates; a bad gradient leaves the
    parameters untouched.
    """
    rng = np.random.default_rng(derive_seed(config.seed, "init"))
    params = ModelParams.for_config(rng, config, len(split.train_classes))
    bank = BasePrototypeBank.zeros(split.train_classes, config.dim, config.momentum)
    opt = T.AdamW(params.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    losses: list[float] = []
    episodes = episode_stream(pool, split, "train", config, config.seed, config.episodes)
    for i, episode in enumerate(episodes):
        seg_logits, features = forward(episode, params, bank, "train")
        base_logits = T.mlp_forward(features[-1], params.base_head)
        step_loss = loss(seg_logits, base_logits, episode.query_gt, base_targets(episode.query.labels, bank.class_ids))
        value = float(step_loss.data)
        if not math.isfinite(value):
            raise NonFiniteLossError(f"episode {i}: loss is {value}")
        opt.zero_grad()
        step_loss.backward()
        try:
            opt.step()
        except T.NonFiniteGradientError as exc:
            raise NonFiniteLossError(f"episode {i}: {exc}") from None
        _update_bank_from_episode(bank, episode, features)
        losses.append(value)
    return TrainResult(params=params, bank=bank, losses=losses)


@dataclass
class EvalResult:
    per_class: dict[int, float]
    mean_iou: float
    episode_miou_mean: float
    n_episodes: int


def score(pairs) -> EvalResult:
    """Pooled IoU over (prediction, episode) pairs.

    Reports the per-class IoU of the confusion counts summed over all
    episodes (so episode order cannot matter), their mean, and the mean
    of per-episode mIoU values. A class or episode with no TP, FP or FN
    is left out of its mean.
    """
    totals: dict[int, np.ndarray] = {}
    episode_mious: list[float] = []
    n_episodes = 0
    for pred, episode in pairs:
        n_episodes += 1
        counts = confusion_counts(pred, episode.query_gt, episode.target_classes)
        _, episode_mean = iou_from_counts(counts.values())
        if math.isfinite(episode_mean):
            episode_mious.append(episode_mean)
        for class_id, tp_fp_fn in counts.items():
            totals.setdefault(class_id, np.zeros(3, dtype=np.int64))
            totals[class_id] += tp_fp_fn
    class_ids = sorted(totals)
    ious, mean_iou = iou_from_counts(totals[c] for c in class_ids)
    return EvalResult(
        per_class={c: float(iou) for c, iou in zip(class_ids, ious) if not math.isnan(iou)},
        mean_iou=mean_iou,
        episode_miou_mean=float(np.mean(episode_mious)) if episode_mious else math.nan,
        n_episodes=n_episodes,
    )


def evaluate(
    pool,
    split: ClassSplit,
    params: ModelParams,
    bank: BasePrototypeBank,
    config,
    n_episodes: int,
    seed: int,
) -> EvalResult:
    """Frozen-model evaluation: `score` over the argmax predictions on
    the test-phase `episode_stream`.

    Raises NonFiniteLossError with the episode index on a NaN or infinite
    segmentation logit. The forward pass runs under `no_grad`, so it
    builds no autograd graph.
    """

    def predictions():
        for i, episode in enumerate(episode_stream(pool, split, "test", config, seed, n_episodes)):
            with T.no_grad():
                seg_logits = forward(episode, params, bank, "test")[0]
            if not np.isfinite(seg_logits.data).all():
                raise NonFiniteLossError(f"episode {i}: segmentation logits are not finite")
            yield seg_logits.data.argmax(axis=1), episode

    return score(predictions())
