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
from .episodes import Episode, ClassSplit, PoolExhaustedError, class_targets, confusion_counts, generate_episode, iou_from_counts
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

    stub: MLPParams
    proj: MLPParams
    layers: list[RefineLayerParams]
    decoder: MLPParams
    base_head: MLPParams

    @classmethod
    def create(cls, rng, dim: int, n_prototypes: int, n_layers: int, heads: int, n_base: int) -> "ModelParams":
        return cls(
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
    guidance. The momentum is the run's `RunConfig.momentum`, passed to
    each update.
    """

    prototypes: np.ndarray
    update_counts: np.ndarray
    class_ids: tuple[int, ...]

    @classmethod
    def zeros(cls, class_ids, dim: int) -> "BasePrototypeBank":
        class_ids = tuple(int(c) for c in class_ids)
        return cls(
            prototypes=np.zeros((len(class_ids), dim)),
            update_counts=np.zeros(len(class_ids), dtype=np.int64),
            class_ids=class_ids,
        )

    def apply_update(self, class_id: int, new_vec: np.ndarray, momentum: float) -> None:
        """Momentum step toward `new_vec`; the very first update assigns it."""
        row = self.class_ids.index(int(class_id))
        new_vec = np.asarray(new_vec, dtype=np.float64).reshape(-1)
        if self.update_counts[row] == 0:
            self.prototypes[row] = new_vec
        else:
            self.prototypes[row] = momentum * self.prototypes[row] + (1.0 - momentum) * new_vec
        self.update_counts[row] += 1

    def zeroed(self) -> "BasePrototypeBank":
        """Ablation copy: every row forgotten, so guidance is all zeros."""
        return BasePrototypeBank.zeros(self.class_ids, self.prototypes.shape[1])


def backbone_stub(cloud: PointCloud, stub: MLPParams) -> Tensor:
    """Point-wise MLP over (xyz, rgb): the stand-in feature extractor."""
    return T.mlp_forward(Tensor(np.hstack([cloud.positions, cloud.colors])), stub)


def extract_prototypes(features_per_shot, shots, n_prototypes: int) -> Tensor:
    """Prototypes for one class from its support shots, each a (cloud, mask)
    pair as an `Episode` holds them, with one feature tensor per shot.

    Per shot: floor(n_prototypes / k) farthest-point seeds on the masked
    positions (at least 1), nearest-seed clustering, and one mean feature
    per cluster. Shot prototypes are concatenated; if fewer than
    `n_prototypes` come out, the earliest rows are cycled to fill, and
    any excess is trimmed. Shots with empty masks are skipped; no shots,
    or all empty, raises EmptyMaskError.
    """
    if n_prototypes < 1:
        raise ValueError(f"n_prototypes must be >= 1, got {n_prototypes}")
    if len(features_per_shot) != len(shots):
        raise ValueError(f"need one feature tensor per shot, got {len(features_per_shot)} for {len(shots)}")
    pieces = []
    for feats, (cloud, mask) in zip(features_per_shot, shots):
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            continue
        seeds = farthest_point_sample(cloud.positions, mask, max(1, n_prototypes // len(shots)))
        groups = cluster_to_seeds(cloud.positions, mask, seeds)
        pieces.append(T.group_mean_rows(feats, groups))
    if not pieces:
        raise EmptyMaskError("no support shot has a masked point")
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
    width = proj.w1.shape[0]
    if any(mat.shape[0] != width for mat in protos):
        raise ValueError(f"every class needs {width} prototypes, got {[mat.shape[0] for mat in protos]}")
    sims = T.concat([T.cosine_rows(query_features, mat) for mat in protos], axis=1)
    return T.mlp_forward(T.reshape(sims, (query_features.shape[0], len(protos), width)), proj)


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
    guide_mat = T.repeat_columns(guide, dim)
    new_bg = T.affine(T.concat([bg, guide_mat], axis=1), fc_w, fc_b)
    fg = T.narrow(corr, 1, 0, n_c - 1)
    return T.concat([fg, T.reshape(new_bg, (n_q, 1, dim))], axis=1)


def _refine_points(t: Tensor, lp: RefineLayerParams) -> Tensor:
    """The point half of a layer on N_C x N_Q x D: point attention, then the point MLP."""
    t = T.add(t, multi_head_linear_attention(T.layer_norm(t, lp.ln_point_attn.gain, lp.ln_point_attn.bias), lp.point_attn))
    return T.add(t, T.mlp_forward(T.layer_norm(t, lp.ln_point_mlp.gain, lp.ln_point_mlp.bias), lp.point_mlp))


def _refine_classes(c: Tensor, guide: Tensor, lp: RefineLayerParams) -> Tensor:
    """The class half on N_Q x N_C x D: background recalibration, class attention, then the class MLP."""
    c = calibrate_background(c, guide, lp.bg_fc_w, lp.bg_fc_b)
    c = T.add(c, multi_head_linear_attention(T.layer_norm(c, lp.ln_class_attn.gain, lp.ln_class_attn.bias), lp.class_attn))
    return T.add(c, T.mlp_forward(T.layer_norm(c, lp.ln_class_mlp.gain, lp.ln_class_mlp.bias), lp.class_mlp))


def apply_refine_layer(corr: Tensor, guide: Tensor, lp: RefineLayerParams) -> Tensor:
    """One refinement layer on an N_Q x N_C x D correlation tensor.

    Pre-norm residual blocks: attention across query points (per class
    slice), a point-wise MLP, background recalibration, attention across
    classes (per query point), and another MLP. Output layout is again
    N_Q x N_C x D.

    With gradients on, or where `T.splits_rows(D)` is false, each half runs
    on the whole tensor. Under `no_grad` the point half runs one class slice
    and the class half one `T.row_blocks` range of query points at a time,
    in half the memory and, on OpenBLAS's `SkylakeX` core, with the same
    bytes. On its `Haswell` core the dims 8 and 32 differ.
    """
    n_q, n_c, dim = corr.shape
    if T._grad_enabled or not T.splits_rows(dim):
        t = _refine_points(T.transpose_first_two(corr), lp)  # (N_C, N_Q, D): attend across points
        return _refine_classes(T.transpose_first_two(t), guide, lp)  # (N_Q, N_C, D): attend across classes
    out = np.empty(corr.shape)
    for k in range(n_c):
        out[:, k] = _refine_points(Tensor(np.ascontiguousarray(corr.data[None, :, k])), lp).data[0]
    for q0, q1 in T.row_blocks(n_q, dim):
        out[q0:q1] = _refine_classes(Tensor(out[q0:q1]), Tensor(guide.data[q0:q1]), lp).data
    return Tensor(out)


# ---------------------------------------------------------------------------
# forward / loss
# ---------------------------------------------------------------------------

def embed_episode(episode: Episode, params: ModelParams):
    """The stub features of every support shot, way by way; each class's
    prototypes, the background way last; and the query's stub features."""
    support_feats = [[backbone_stub(cloud, params.stub) for cloud, _ in way] for way in episode.support]
    all_feats = [f for feats in support_feats for f in feats]
    # The background is one more way: every support cloud with its mask
    # inverted, all sharing one prototype budget.
    background = [(cloud, ~mask) for way in episode.support for cloud, mask in way]
    protos = [extract_prototypes(feats, shots, params.proj.w1.shape[0])
              for feats, shots in zip(support_feats + [all_feats], episode.support + [background])]
    return all_feats, protos, backbone_stub(episode.query, params.stub)


def segment(query_features: Tensor, protos: list[Tensor], guide: Tensor, params: ModelParams) -> Tensor:
    """Segmentation logits (N_Q x (n_way+1), background first) from `embed_episode`'s
    query features and prototypes and the guidance: correlations, refinement, decoder."""
    corr = compute_correlations(query_features, protos, params.proj)
    for lp in params.layers:
        corr = apply_refine_layer(corr, guide, lp)

    n_q, n_c = corr.shape[0], corr.shape[1]
    decoded = T.reshape(T.mlp_forward(corr, params.decoder), (n_q, n_c))
    # Tensor class order is (ways..., background); ground truth uses 0 for
    # background, so move the background column to the front.
    return T.concat([T.narrow(decoded, 1, n_c - 1, 1), T.narrow(decoded, 1, 0, n_c - 1)], axis=1)


def forward(episode: Episode, params: ModelParams, bank: BasePrototypeBank, excluded):
    """`segment`'s logits, with guidance that leaves out the bank rows of the
    `excluded` class ids, and the backbone features of the episode's clouds:
    every support shot, way by way, then the query last."""
    support_features, protos, query_features = embed_episode(episode, params)
    seg_logits = segment(query_features, protos, base_guidance(query_features, bank, excluded), params)
    return seg_logits, support_features + [query_features]


def loss(seg_logits: Tensor, base_logits: Tensor, query_gt, base_gt) -> Tensor:
    """Unweighted sum of the two cross-entropies."""
    return T.add(T.cross_entropy(base_logits, base_gt), T.cross_entropy(seg_logits, query_gt))


def train_exclusions(episode: Episode):
    """The class ids whose bank rows guidance leaves out in training: the targets."""
    return episode.target_classes


def episode_loss(episode: Episode, params: ModelParams, bank: BasePrototypeBank):
    """The loss `meta_train` minimizes on one episode, and `forward`'s features:
    guidance leaves out the bank rows of `train_exclusions`, and the base head
    on the query features predicts each point's `class_targets` over the bank."""
    seg_logits, features = forward(episode, params, bank, train_exclusions(episode))
    base_logits = T.mlp_forward(features[-1], params.base_head)
    return loss(seg_logits, base_logits, episode.query_gt, class_targets(episode.query.labels, bank.class_ids)), features


# ---------------------------------------------------------------------------
# training and evaluation
# ---------------------------------------------------------------------------

def _raise_malloc_thresholds() -> None:
    """Free one 32 MB block, so that glibc keeps what an episode frees.

    Per mallopt(3), freeing an mmapped block raises glibc's dynamic mmap
    threshold to its size (here 32 MB) and its trim threshold to twice
    that, so the next episode reuses the arrays this one freed, where
    glibc would return them to the kernel and fault them in again. No
    value moves.
    """
    np.empty(4_000_000)


def _quiet_numpy():
    """numpy's overflow, invalid and divide warnings off. Training and
    evaluation turn a non-finite loss, gradient, update or logit into one
    NonFiniteLossError naming its episode, so the warnings add nothing."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def episode_stream(pool, split: ClassSplit, phase: str, config, seed: int, n: int):
    """Episodes 0..n-1 of the phase's seeded stream at the config's way,
    shot, foreground floor and point cap; episode i is built from
    `derive_seed(seed, stream, i)`. The phase picks the classes and the
    stream: `train` is what `meta_train` draws at the config's seed, `test`
    what `evaluate` scores at its `seed`. This is the one reader of a phase.
    A pool that cannot build episode i raises PoolExhaustedError naming i
    and its seed; a support whose every point is foreground, which leaves
    the background way empty, raises EmptyMaskError naming them."""
    if phase == "train":
        classes, stream = split.train_classes, "episodes"
    elif phase == "test":
        classes, stream = split.test_classes, "eval"
    else:
        raise ValueError(f"phase must be 'train' or 'test', got {phase!r}")
    for i in range(n):
        episode_seed = derive_seed(seed, stream, i)
        try:
            episode = generate_episode(
                pool, classes, config.n_way, config.k_shot, config.min_fg_points, config.max_points, episode_seed,
            )
        except PoolExhaustedError as exc:
            raise PoolExhaustedError(f"episode {i} (seed {episode_seed}): {exc}") from None
        if all(mask.all() for way in episode.support for _, mask in way):
            raise EmptyMaskError(f"episode {i} (seed {episode_seed}): the support holds no background point")
        yield episode


@dataclass
class TrainResult:
    params: ModelParams
    bank: BasePrototypeBank
    losses: list[float] = field(default_factory=list)


def _update_bank_from_episode(bank: BasePrototypeBank, episode: Episode, features, momentum: float) -> None:
    """One step at `momentum` per training class present in the episode.

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
            bank.apply_update(class_id, np.mean(pooled, axis=0), momentum)


def meta_train(pool, split: ClassSplit, config) -> TrainResult:
    """Episodic training on the train half of the split.

    Per episode: backprop `episode_loss`, one AdamW step, then a bank
    update from the support and query features. Raises NonFiniteLossError
    with the episode index if the loss, a gradient or an update is not
    finite; a bad step leaves the parameters untouched.
    """
    _raise_malloc_thresholds()
    rng = np.random.default_rng(derive_seed(config.seed, "init"))
    params = ModelParams.for_config(rng, config, len(split.train_classes))
    bank = BasePrototypeBank.zeros(split.train_classes, config.dim)
    opt = T.AdamW(params.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    losses: list[float] = []
    episodes = episode_stream(pool, split, "train", config, config.seed, config.episodes)
    with _quiet_numpy():
        for i, episode in enumerate(episodes):
            step_loss, features = episode_loss(episode, params, bank)
            value = float(step_loss.data)
            if not math.isfinite(value):
                raise NonFiniteLossError(f"episode {i}: loss is {value}")
            opt.zero_grad()
            step_loss.backward()
            try:
                opt.step()
            except T.NonFiniteGradientError as exc:
                raise NonFiniteLossError(f"episode {i}: {exc}") from None
            _update_bank_from_episode(bank, episode, features, config.momentum)
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


def evaluate(pool, split: ClassSplit, params: ModelParams, bank: BasePrototypeBank, config, n_episodes: int,
             seed: int) -> EvalResult:
    """Frozen-model evaluation: `score` over the argmax predictions on
    the test-phase `episode_stream`.

    Raises NonFiniteLossError with the episode index on a NaN or infinite
    segmentation logit. The forward pass runs under `no_grad`, so it
    builds no autograd graph and `apply_refine_layer` runs its class halves
    on the `T.row_blocks` ranges of the query points: on OpenBLAS's
    `SkylakeX` core the same logits, byte for byte, in about half the memory.
    """
    _raise_malloc_thresholds()

    def predictions():
        for i, episode in enumerate(episode_stream(pool, split, "test", config, seed, n_episodes)):
            with T.no_grad(), _quiet_numpy():
                seg_logits = forward(episode, params, bank, ())[0]
            if not np.isfinite(seg_logits.data).all():
                raise NonFiniteLossError(f"episode {i}: segmentation logits are not finite")
            yield seg_logits.data.argmax(axis=1), episode

    return score(predictions())
