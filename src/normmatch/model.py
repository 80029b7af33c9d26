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
from .geometry import build_graph
from .losses import LossReport, total_loss, total_loss_backward
from .matching import Matching, TransportPlan, affinity, decode_matching, sinkhorn_log
from .params import ParameterStore
from .splineconv import gnn_refine, gnn_refine_backward, init_gnn_params

__all__ = ["MatchingModel"]


class MatchingModel:
    """The full pipeline behind one ParameterStore."""

    def __init__(self, config: TrainConfig, store: ParameterStore | None = None):
        config.validate()
        self.config = config
        if store is None:
            store = ParameterStore()
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
        self.store = store

    # ---------------- forward ----------------

    def _encode_image(self, backbone_out, keypoints):
        """Backbone output + keypoints -> (FeatureSequence, cache)."""
        feats = extract_keypoint_features(backbone_out, keypoints)
        if feats.shape[1] != self.config.gnn_input_dim:
            raise ValueError(
                f"backbone width {feats.shape[1]} does not match configured "
                f"gnn_input_dim {self.config.gnn_input_dim}"
            )
        graph = build_graph(keypoints)
        tokens, gnn_cache = gnn_refine(feats, graph, self.store)
        glob, glob_cache = global_token(backbone_out, self.store)
        return FeatureSequence(tokens, glob), (gnn_cache, glob_cache)

    def forward_pair(self, pair: PairSample, want_caches: bool = False):
        """Decoder outputs for one pair.

        Returns (f1, f2, snapshots) and, when want_caches is set, the cache
        bundle needed for the backward pass.
        """
        b1, b2 = pair.backbone_outputs()
        seq1, enc1 = self._encode_image(b1, pair.keypoints1)
        seq2, enc2 = self._encode_image(b2, pair.keypoints2)
        f1, f2, snapshots, dec_caches = decode(
            seq1, seq2, self.store, self.config.decoder_layers, self.config.heads
        )
        if want_caches:
            return f1, f2, snapshots, (enc1, enc2, dec_caches)
        return f1, f2, snapshots

    # ---------------- training ----------------

    def loss_and_grads(self, pair: PairSample) -> LossReport:
        """Full loss for one pair; accumulates gradients into the store."""
        f1, f2, snapshots, (enc1, enc2, dec_caches) = self.forward_pair(
            pair, want_caches=True
        )
        report, loss_cache = total_loss(
            f1.tokens,
            f2.tokens,
            snapshots,
            pair.truth,
            float(self.store.value("loss.tau_raw")),
            self.config.layer_loss_p,
            self.config.infonce_mode,
        )
        g_f1, g_f2, snapshot_grads, g_tau = total_loss_backward(loss_cache)
        self.store.add_grad("loss.tau_raw", g_tau)
        d = self.config.d_model
        g_t1, g_g1, g_t2, g_g2 = decode_backward(
            dec_caches, self.store, g_f1, np.zeros(d), g_f2, np.zeros(d),
            snapshot_grads,
        )
        for (gnn_cache, glob_cache), g_tokens, g_glob in (
            (enc1, g_t1, g_g1),
            (enc2, g_t2, g_g2),
        ):
            gnn_refine_backward(gnn_cache, g_tokens, self.store)
            global_token_backward(glob_cache, g_glob, self.store)
        return report

    # ---------------- inference ----------------

    def match_pair(self, pair: PairSample) -> tuple[Matching, TransportPlan, np.ndarray]:
        """Run inference: returns (matching, transport plan, affinity matrix)."""
        f1, f2, _ = self.forward_pair(pair)
        C = affinity(f1.tokens, f2.tokens)
        plan = sinkhorn_log(C, self.config.sinkhorn_temperature, self.config.sinkhorn_iters)
        return decode_matching(plan), plan, C
