"""End-to-end matching model: backbone -> graph GNN -> decoder -> Sinkhorn.

Owns the ParameterStore and the forward/backward composition. The training
objective is InfoNCE plus the hyperspherical terms on decoder outputs; the
Sinkhorn stage is inference-only.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .config import TrainConfig
from .data import PairSample
from .decoder import FeatureSequence, decode, decode_backward, init_decoder_params
from .features import extract_keypoint_features, global_token, global_token_backward
from .geometry import build_graph
from .losses import LossReport, total_loss, total_loss_backward
from .matching import Matching, TransportPlan, affinity, decode_matching, sinkhorn_log
from .params import ParameterStore
from .splineconv import gnn_refine, gnn_refine_backward, init_gnn_params

__all__ = ["MatchingModel", "PreparedPair"]


class PreparedPair(NamedTuple):
    """All of a pair that no parameter touches, per image in image order."""

    pair: PairSample  # kept for its truth
    features: list  # (m, gnn_input_dim) keypoint features of each image
    graphs: list  # KeypointGraph of each image
    pooled: np.ndarray  # (2, gnn_input_dim) pooled map means


class MatchingModel:
    """The full pipeline behind one ParameterStore."""

    def __init__(self, config: TrainConfig):
        config.validate()
        self.config = config
        self.store = store = ParameterStore()
        rng = np.random.default_rng([20240319, config.seed])
        init_gnn_params(store, rng, config.gnn_input_dim, config.d_model,
                        config.kernel_size)
        init_decoder_params(store, rng, config.d_model, config.decoder_layers,
                            config.mlp_mult)
        store.register(
            "backbone.global_proj",
            rng.standard_normal((config.gnn_input_dim, config.d_model))
            / np.sqrt(config.gnn_input_dim),
        )
        store.register("loss.tau_raw", np.log(0.07))
        store.quantize_float32()

    # ---------------- forward ----------------

    def prepare(self, pair: PairSample) -> PreparedPair:
        """A pure function of the pair; its backbone maps are released on return."""
        outs, keypoints = pair.backbone_outputs(), (pair.keypoints1, pair.keypoints2)
        (w1, w2), dim = [len(b.pooled) for b in outs], self.config.gnn_input_dim
        if w1 != dim or w2 != dim:
            name1, name2 = pair.feature_files or (pair.image1, pair.image2)
            raise ValueError(f"{name1}, {name2}: backbone width {w1 if w1 != dim else w2} does "
                             f"not match gnn_input_dim {dim} (widths {w1} and {w2})")
        return PreparedPair(pair, [extract_keypoint_features(*bk) for bk in zip(outs, keypoints)],
                            [build_graph(k) for k in keypoints],
                            np.array([b.pooled for b in outs]))

    def forward_pair(self, pair: PairSample):
        """Decoder outputs of one pair, a batch of one: (m, d) rows, snapshots (2, m, d)."""
        f1, f2, snapshots, _ = self._forward([self.prepare(pair)], keep_caches=False)
        return (FeatureSequence(f1.tokens[0], f1.global_token[0]),
                FeatureSequence(f2.tokens[0], f2.global_token[0]),
                [s[:, 0] for s in snapshots])

    def _forward(self, prepared, keep_caches: bool = True):
        """Decoder outputs (f1, f2, snapshots) and caches of prepared pairs.

        Each layer runs once over all pairs. The decoder takes them zero-padded to
        (B, n, d) per stream with one (B, n) mask for both, none when no row is padded.
        Inference keeps no GNN or decoder cache (keep_caches=False): no backward reads them.
        """
        globs, glob_cache = global_token(np.concatenate([p.pooled for p in prepared]), self.store)
        feats = [f for p in prepared for f in p.features]
        tokens, gnn_cache = gnn_refine(feats, [g for p in prepared for g in p.graphs], self.store,
                                       keep_caches)
        lengths = [len(f) for f in feats]
        shape = (len(prepared), 2, max(lengths), tokens.shape[1])
        if min(lengths) == shape[2]:
            valid, padded = None, tokens.reshape(shape)
        else:
            valid = np.arange(shape[2]) < np.reshape(lengths, (-1, 2, 1))  # (B, 2, n): real rows
            padded = np.zeros(shape)
            padded[valid] = tokens
        globs, pad = globs.reshape(shape[0], 2, -1), None if valid is None else ~valid[:, 0]
        f1, f2, snapshots, dec_caches = decode(
            FeatureSequence(padded[:, 0], globs[:, 0], pad),
            FeatureSequence(padded[:, 1], globs[:, 1], pad),
            self.store, self.config.decoder_layers, self.config.heads, keep_caches,
        )
        return f1, f2, snapshots, (valid, glob_cache, gnn_cache, dec_caches)

    # ---------------- training ----------------

    def loss(self, prepared) -> tuple[list[LossReport], Callable[[], None]]:
        """(Loss report per prepared pair, backward), each layer run once over the minibatch;
        backward() adds the summed gradients into the store."""
        f1, f2, snapshots, caches = self._forward(prepared)
        valid, glob_cache, gnn_cache, dec_caches = caches
        cfg, store = self.config, self.store
        truth = np.zeros(f1.tokens.shape[:2], np.intp)  # the losses ignore its padding rows
        real = np.ones(truth.shape, bool) if valid is None else valid[:, 0]
        truth[real] = np.concatenate([prep.pair.truth for prep in prepared])
        reports, loss_cache = total_loss(f1.tokens, f2.tokens, snapshots, truth,
                                         float(store.value("loss.tau_raw")), cfg.layer_loss_p,
                                         cfg.infonce_mode, f1.pad)

        def backward():
            g_f1, g_f2, snapshot_grads, g_tau = total_loss_backward(loss_cache)
            store.add_grad("loss.tau_raw", g_tau)
            g_glob = np.zeros_like(f1.global_token)
            g_t1, g_g1, g_t2, g_g2 = decode_backward(dec_caches, store, g_f1, g_glob, g_f2,
                                                     g_glob, snapshot_grads)
            # (B, 2, ...) rows: the order of the pooled means and of the GNN's images
            global_token_backward(glob_cache, np.stack([g_g1, g_g2], 1).reshape(-1, cfg.d_model),
                                  store)
            g_rows = np.stack([g_t1, g_t2], axis=1).reshape(-1, cfg.d_model)
            gnn_refine_backward(gnn_cache, g_rows if valid is None else g_rows[valid.ravel()],
                                store)
        return reports, backward

    # ---------------- inference ----------------

    def match_pair(self, pair: PairSample) -> tuple[Matching, TransportPlan, np.ndarray]:
        """Run inference: returns (matching, transport plan, affinity matrix)."""
        return self.match_prepared(self.prepare(pair))

    def match_prepared(self, prepared: PreparedPair):
        """match_pair of a pair already prepared."""
        f1, f2, _, _ = self._forward([prepared], keep_caches=False)
        C = affinity(f1.tokens[0], f2.tokens[0])
        plan = sinkhorn_log(C, self.config.sinkhorn_temperature, self.config.sinkhorn_iters)
        return decode_matching(plan), plan, C
