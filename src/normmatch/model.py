"""End-to-end matching model: backbone -> graph GNN -> decoder -> Sinkhorn.

Owns the ParameterStore and the forward/backward composition. The training
objective is InfoNCE plus the hyperspherical terms on decoder outputs; the
Sinkhorn stage is inference-only.
"""

from __future__ import annotations

import numpy as np

from .config import TrainConfig
from .data import PairSample
from .decoder import FeatureSequence, decode, decode_backward, init_decoder_params
from .features import extract_keypoint_features, global_token, global_token_backward
from .geometry import batch_graphs, build_graph
from .losses import LossReport, total_loss, total_loss_backward
from .matching import Matching, TransportPlan, affinity, decode_matching, sinkhorn_log
from .params import ParameterStore
from .splineconv import gnn_refine, gnn_refine_backward, init_gnn_params

__all__ = ["MatchingModel"]


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

    def _encode(self, pairs):
        """Tokens of every image of pairs, through one GNN call on the union.

        Each pair's feature maps are released once sampled. Returns (union
        tokens, (B, 2) rows per image, (B, 2, d) global tokens, global caches
        per image, gnn cache).
        """
        feats, graphs, globs, glob_caches = [], [], [], []
        for pair in pairs:
            for backbone_out, keypoints in zip(pair.backbone_outputs(),
                                               (pair.keypoints1, pair.keypoints2)):
                feats.append(extract_keypoint_features(backbone_out, keypoints))
                graphs.append(build_graph(keypoints))
                glob, glob_cache = global_token(backbone_out, self.store)
                globs.append(glob)
                glob_caches.append(glob_cache)
        tokens, gnn_cache = gnn_refine(np.concatenate(feats), batch_graphs(graphs), self.store)
        lengths = np.reshape([len(f) for f in feats], (-1, 2))
        return tokens, lengths, np.reshape(globs, lengths.shape + (-1,)), glob_caches, gnn_cache

    def forward_pair(self, pair: PairSample):
        """Decoder outputs (f1, f2, snapshots) for one pair, a batch of one."""
        tokens, [(m1, _)], [(glob1, glob2)], _, _ = self._encode([pair])
        f1, f2, snapshots, _ = decode(
            FeatureSequence(tokens[:m1], glob1), FeatureSequence(tokens[m1:], glob2),
            self.store, self.config.decoder_layers, self.config.heads,
        )
        return f1, f2, snapshots

    # ---------------- training ----------------

    def loss_and_grads(self, pairs) -> list[LossReport]:
        """Loss report per pair; accumulates the summed gradients into the store.

        The GNN runs once over the union of all images, and the decoder once
        over all pairs zero-padded to one (B, n, d) batch per stream; the
        losses run per pair on its real rows.
        """
        tokens, lengths, globs, glob_caches, gnn_cache = self._encode(pairs)
        cfg, store = self.config, self.store
        valid = np.arange(lengths.max()) < lengths[..., None]  # (B, 2, n): real rows
        padded = np.zeros(valid.shape + tokens.shape[1:])
        padded[valid] = tokens
        f1, f2, snapshots, dec_caches = decode(
            *(FeatureSequence(padded[:, k], globs[:, k],
                              None if valid[:, k].all() else ~valid[:, k]) for k in (0, 1)),
            store, cfg.decoder_layers, cfg.heads,
        )
        outs = [(f1.tokens, f2.tokens)] + snapshots  # final tokens, then per layer
        grads = [(np.zeros_like(t1), np.zeros_like(t2)) for t1, t2 in outs]
        reports = []
        for i, (pair, (m1, m2)) in enumerate(zip(pairs, lengths)):
            report, loss_cache = total_loss(
                f1.tokens[i, :m1], f2.tokens[i, :m2],
                [(t1[i, :m1], t2[i, :m2]) for t1, t2 in snapshots], pair.truth,
                float(store.value("loss.tau_raw")), cfg.layer_loss_p, cfg.infonce_mode,
            )
            g_f1, g_f2, snapshot_grads, g_tau = total_loss_backward(loss_cache)
            store.add_grad("loss.tau_raw", g_tau)
            for (g1, g2), (p1, p2) in zip(grads, [(g_f1, g_f2)] + snapshot_grads):
                g1[i, :m1], g2[i, :m2] = p1, p2
            reports.append(report)
        (g_f1, g_f2), *snapshot_grads = grads
        g_t1, g_g1, g_t2, g_g2 = decode_backward(
            dec_caches, store, g_f1, np.zeros_like(f1.global_token), g_f2,
            np.zeros_like(f2.global_token), snapshot_grads,
        )
        for cache, g in zip(glob_caches, np.stack([g_g1, g_g2], axis=1).reshape(-1, cfg.d_model)):
            global_token_backward(cache, g, store)
        gnn_refine_backward(gnn_cache, np.stack([g_t1, g_t2], axis=1)[valid], store)
        return reports

    # ---------------- inference ----------------

    def match_pair(self, pair: PairSample) -> tuple[Matching, TransportPlan, np.ndarray]:
        """Run inference: returns (matching, transport plan, affinity matrix)."""
        f1, f2, _ = self.forward_pair(pair)
        C = affinity(f1.tokens, f2.tokens)
        plan = sinkhorn_log(C, self.config.sinkhorn_temperature, self.config.sinkhorn_iters)
        return decode_matching(plan), plan, C
