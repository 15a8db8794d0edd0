"""The three ranking architectures.

* ``ITEModel`` fuses a GMF branch and an MLP tower into an implicit-layer
  representation, reads off the implicit probability, then feeds the same
  representation through an explicit tower for the explicit probability.
* ``BertITEModel`` replaces the fusion network with a bidirectional
  transformer over [user; recent items; target item] rows; the user row of
  the final layer, gated by the target item embedding, plays the role of
  the implicit layer.
* Side-information variants extend either model by adding, at lookup
  time, the side-projection columns of an item's categories, or of a
  user's categories weighted by their frequencies, to the id embedding.

Both models output a pair of probabilities (implicit, explicit); the
ranking score is their product.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import layers as L
from . import tensor as T
from .tensor import ConfigError, ParameterRegistry, Tensor

VARIANTS = {
    "ite": ("ite", "none"),
    "ite-si": ("ite", "user_and_item"),
    "ite-ossi": ("ite", "item_only"),
    "bert-ite": ("bert", "none"),
    "bert-ite-si": ("bert", "user_and_item"),
    "bert-ite-ossi": ("bert", "item_only"),
}


@dataclass
class ModelConfig:
    embedding_dim: int = 16              # K
    seq_len: int = 20                    # n recent items ahead of the target
    transformer_layers: int = 2          # L
    attention_heads: int = 2             # h
    implicit_mlp_layers: int = 3         # depth of the fusion tower (ITE)
    explicit_mlp_layers: int = 3         # depth of the explicit tower
    dropout: float = 0.1
    side_dim: int = 0                    # T (category count)

    def validate(self) -> None:
        for name in ("embedding_dim", "attention_heads", "implicit_mlp_layers", "explicit_mlp_layers",
                     "seq_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0 <= self.dropout < 1:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class ForwardResult:
    """Batched forward outputs plus the embedding vectors the batch touched
    (the inputs to the L2 regularizer)."""
    x_hat: Tensor                     # implicit probabilities, shape [B]
    y_hat: Tensor                     # explicit probabilities, shape [B]
    embedding_rows: list = field(default_factory=list)


def _implicit_tower_widths(k: int, depth: int) -> list[int]:
    # halving tower ending at K: depth 3 gives 4K -> 2K -> K
    return [k * 2 ** (depth - 1 - j) for j in range(depth)]


def _explicit_tower_widths(in_dim: int, depth: int) -> list[int]:
    # width holds at the input then halves: 2K -> K -> K/2 (floor of 1)
    return [max(1, in_dim // 2 ** j) for j in range(depth)]


def _head_scores(phi: Tensor, head: Tensor) -> Tensor:
    """sigma(phi @ h) for a vector head, returned with shape [B]."""
    col = T.reshape(head, (head.shape[0], 1))
    return T.sigmoid(T.reshape(T.matmul(phi, col), (phi.shape[0],)))


class _ImplicitExplicitModel:
    """What every variant shares: the side widths, the implicit head, the
    chained explicit tower and head, and the batched input path.

    A subclass builds its encoder in ``_build_encoder`` (returning the width
    of its implicit-layer representation) and defines ``forward``.
    """

    kind: str
    variant: str   # the model's name in VARIANTS, which fixes its side mode; the class's is side-free

    def __init__(self, num_users: int, num_items: int, config: ModelConfig,
                 seed: int = 0, variant: Optional[str] = None):
        config.validate()
        if variant is not None:
            self.variant = variant
        kind, mode = VARIANTS.get(self.variant, (None, None))
        if kind != self.kind:
            raise ConfigError(f"{type(self).__name__} cannot build variant {self.variant!r}")
        if mode != "none" and config.side_dim <= 0:
            raise ConfigError(f"variant {self.variant!r} needs side_dim > 0, got {config.side_dim}")
        self.num_users = num_users
        self.num_items = num_items
        self.config = config
        self.params = params = ParameterRegistry()
        rng = np.random.default_rng(seed)
        user_side = config.side_dim if mode == "user_and_item" else 0
        item_side = config.side_dim if mode != "none" else 0
        phi_dim = self._build_encoder(params, rng, user_side, item_side)
        self.implicit_head = params.add("implicit_head", L.glorot_uniform(rng, phi_dim, 1, (phi_dim,)))
        expl_widths = _explicit_tower_widths(phi_dim, config.explicit_mlp_layers)
        self.explicit_tower = L.dense_tower(params, "explicit_mlp", phi_dim, expl_widths, rng)
        self.explicit_head = params.add("explicit_head",
                                        L.glorot_uniform(rng, expl_widths[-1], 1, (expl_widths[-1],)))

    def _heads(self, phi_implicit: Tensor, embedding_rows: list) -> ForwardResult:
        x_hat = _head_scores(phi_implicit, self.implicit_head)
        phi_explicit = L.apply_tower(self.explicit_tower, phi_implicit)
        y_hat = _head_scores(phi_explicit, self.explicit_head)
        return ForwardResult(x_hat, y_hat, embedding_rows)

    def _side_bags(self, side_info, users: np.ndarray, *items: np.ndarray) -> tuple:
        """The category bags the variant adds to its id embeddings, read from
        ``side_info`` (a ``data.SideInfo`` with ``config.side_dim``
        categories) once per distinct id: the distinct users' (ids, weights),
        the distinct items' (ids, None) over every item array together, and
        each array's inverse, which gives each occurrence its bag
        (``EmbeddingTable.side_columns`` and ``lookup`` take them). (None,
        None) and None where the variant reads none. A side-free variant
        ignores ``side_info``."""
        mode = VARIANTS[self.variant][1]
        if mode == "none":
            return (None, None), (None, None), (None,) * (1 + len(items))
        if side_info is None:
            raise ConfigError(f"model variant needs side info ({mode})")
        if side_info.num_categories != self.config.side_dim:
            raise ConfigError(f"side info has {side_info.num_categories} categories, "
                              f"the model's side_dim is {self.config.side_dim}")
        # the inverse's shape differs across numpy versions, so it is set here
        user, user_at = (None, None), None
        if mode == "user_and_item":
            distinct, inverse = np.unique(users, return_inverse=True)
            user, user_at = side_info.user_matrix(distinct), inverse.reshape(users.shape)
        distinct, inverse = np.unique(np.concatenate([x.reshape(-1) for x in items]), return_inverse=True)
        parts = np.split(inverse.reshape(-1), np.cumsum([x.size for x in items])[:-1])
        item = (side_info.item_matrix(distinct), None)
        return user, item, (user_at,) + tuple(part.reshape(x.shape) for x, part in zip(items, parts))

    def forward_batch(self, users: np.ndarray, candidates: np.ndarray,
                      contexts: Optional[np.ndarray] = None, side_info=None,
                      training: bool = False,
                      rng: Optional[np.random.Generator] = None) -> ForwardResult:
        """``forward`` with the arguments in one order for every variant:
        ``contexts`` is the [B, n] padded session ahead of each candidate,
        which sequence models read and the others ignore."""
        items = (contexts, candidates) if self.kind == "bert" else (candidates,)
        return self.forward(users, *items, side_info, training=training, rng=rng)


class ITEModel(_ImplicitExplicitModel):
    """GMF/MLP fusion front end with a chained explicit tower."""

    kind = "ite"
    variant = "ite"

    def _build_encoder(self, params, rng, user_side, item_side) -> int:
        k = self.config.embedding_dim
        mlp_widths = _implicit_tower_widths(k, self.config.implicit_mlp_layers)
        mlp_emb = mlp_widths[0]  # concat of two such embeddings feeds the tower
        self.gmf_user = L.EmbeddingTable.build(params, "gmf.user", self.num_users, k, rng, user_side)
        self.gmf_item = L.EmbeddingTable.build(params, "gmf.item", self.num_items, k, rng, item_side)
        self.mlp_user = L.EmbeddingTable.build(params, "mlp.user", self.num_users, mlp_emb, rng, user_side)
        self.mlp_item = L.EmbeddingTable.build(params, "mlp.item", self.num_items, mlp_emb, rng, item_side)
        self.implicit_tower = L.dense_tower(params, "implicit_mlp", 2 * mlp_emb, mlp_widths, rng)
        return 2 * k

    def forward(self, users: np.ndarray, items: np.ndarray, side_info=None,
                training: bool = False,
                rng: Optional[np.random.Generator] = None) -> ForwardResult:
        """Score a batch of (user, item) pairs. ``items`` is an int array
        [B] and ``users`` one of [B] or [1] (one user for every item);
        ``side_info`` is a ``data.SideInfo`` when the variant uses one. The
        model has no dropout, so ``training`` and ``rng`` change nothing."""
        users = np.asarray(users)
        items = np.asarray(items)
        user_bag, item_bag, (user_at, item_at) = self._side_bags(side_info, users, items)
        pg = self.gmf_user.lookup(users, self.gmf_user.side_columns(*user_bag), user_at)
        qg = self.gmf_item.lookup(items, self.gmf_item.side_columns(*item_bag), item_at)
        pm = self.mlp_user.lookup(users, self.mlp_user.side_columns(*user_bag), user_at)
        qm = self.mlp_item.lookup(items, self.mlp_item.side_columns(*item_bag), item_at)

        # a single user row serves every item
        pg, pm = T.broadcast_to(pg, qg.shape), T.broadcast_to(pm, qm.shape)
        phi_gmf = T.elementwise_mul(pg, qg)
        phi_mlp = L.apply_tower(self.implicit_tower, T.concat(pm, qm, axis=-1))
        return self._heads(T.concat(phi_gmf, phi_mlp, axis=-1), [pg, qg, pm, qm])


class BertITEModel(_ImplicitExplicitModel):
    """Transformer session encoder feeding the implicit/explicit heads."""

    kind = "bert"
    variant = "bert-ite"

    def _build_encoder(self, params, rng, user_side, item_side) -> int:
        if self.config.transformer_layers < 1:
            raise ConfigError("transformer_layers must be >= 1 for a bert variant")
        k = self.config.embedding_dim
        self.user_table = L.EmbeddingTable.build(params, "user", self.num_users, k, rng, user_side)
        # one item table shared by sequence rows and the target item
        self.item_table = L.EmbeddingTable.build(params, "item", self.num_items, k, rng, item_side)
        self.transformer = [
            L.TransformerLayer(params, f"trm{l}", k, self.config.attention_heads, rng, self.config.dropout)
            for l in range(self.config.transformer_layers)
        ]
        return k

    def forward(self, users: np.ndarray, sequences: np.ndarray, targets: np.ndarray,
                side_info=None, training: bool = False,
                rng: Optional[np.random.Generator] = None) -> ForwardResult:
        """Score a batch of (user, n-item context, target) triples.

        ``targets`` is int [B] and ``sequences`` int [B, n] (pre-padded);
        ``side_info`` is a ``data.SideInfo`` when the variant uses one.

        ``users`` [1] with ``sequences`` [1, n] scores B > 1 targets against
        one shared user and context (a leading 1 broadcasts, as in numpy).
        The first of two or more layers then attends among the shared rows
        once, not once per target, and runs its row-wise half on
        feature-major blocks of ``layers.BLOCK`` targets
        (``layers._shared_prefix_layer``); the scores agree with scoring
        each target alone to float rounding, and do not depend on how many
        targets one call scores. This form is forward only: it raises
        ``ConfigError`` under ``training`` or outside ``no_grad()``.
        """
        users = np.asarray(users)
        sequences = np.asarray(sequences)
        targets = np.asarray(targets)
        n = self.config.seq_len
        if sequences.ndim != 2 or sequences.shape[1] != n:
            raise ConfigError(f"sequences must be [batch, {n}], got {sequences.shape}")
        b = targets.shape[0]
        p = users.shape[0]
        if sequences.shape[0] != p or p not in (1, b):
            raise ConfigError(f"users {users.shape} and sequences {sequences.shape} must have "
                              f"{b} rows, one per target, or 1 shared by every target")
        shared = p < b
        if shared and (training or T.grad_enabled()):
            raise ConfigError("a user and context shared by several targets is scored forward only: "
                              "call under no_grad() with training off")
        k = self.config.embedding_dim

        user_bag, item_bag, (user_at, seq_at, target_at) = self._side_bags(side_info, users, sequences, targets)
        item_columns = self.item_table.side_columns(*item_bag)   # shared by sequences and targets
        u_emb = self.user_table.lookup(users, self.user_table.side_columns(*user_bag), user_at)   # [P, K]
        seq_emb = self.item_table.lookup(sequences, item_columns, seq_at)                         # [P, n, K]
        tgt_emb = self.item_table.lookup(targets, item_columns, target_at)                        # [B, K]

        prefix = T.concat(T.reshape(u_emb, (p, 1, k)), seq_emb, axis=-2)   # [P, n+1, K]
        tgt_row = T.reshape(tgt_emb, (b, 1, k))
        # the heads read only the user row, so the last layer computes it alone
        *lower, last = self.transformer
        if shared and lower:
            x = L.transformer_layer(prefix, lower[0], target=tgt_row)
            lower = lower[1:]
        else:
            x = T.concat(T.broadcast_to(prefix, (b, n + 1, k)), tgt_row, axis=-2)   # [B, n+2, K]
        for layer in lower:
            x = L.transformer_layer(x, layer, training, rng)
        user_row = T.reshape(T.select_row(x, 0), (b, 1, k))
        u_rep = T.reshape(L.transformer_layer(x, last, training, rng, query=user_row), (b, k))
        return self._heads(T.elementwise_mul(u_rep, tgt_emb), [u_emb, seq_emb, tgt_emb])


def build_model(variant: str, num_users: int, num_items: int, config: ModelConfig,
                seed: int = 0):
    """Construct one of the six named variants; the variant fixes the side
    mode, everything else comes from ``config``."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown model variant {variant!r}; expected one of {sorted(VARIANTS)}")
    kind, side_mode = VARIANTS[variant]
    if side_mode == "none":
        config = replace(config, side_dim=0)
    cls = ITEModel if kind == "ite" else BertITEModel
    return cls(num_users, num_items, config, seed=seed, variant=variant)


def predict_score(x_hat, y_hat):
    """Ranking score: the product of the implicit and explicit probabilities."""
    return x_hat * y_hat
