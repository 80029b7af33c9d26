"""End-to-end matching model: backbone -> graph GNN -> decoder -> Sinkhorn.

Owns the ParameterStore and the forward/backward composition. The training
objective is InfoNCE plus the hyperspherical terms on decoder outputs; the
Sinkhorn stage is inference-only.
"""

from __future__ import annotations

import itertools

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
        """Token sequences of every image of pairs, through one GNN call on the union.

        Each pair's feature maps are released once sampled. Returns
        ([(seq1, seq2, global cache 1, global cache 2) per pair], gnn cache).
        """
        feats, graphs, globs, glob_caches = [], [], [], []
        for pair in pairs:
            for backbone_out, keypoints in zip(pair.backbone_outputs(),
                                               (pair.keypoints1, pair.keypoints2)):
                f = extract_keypoint_features(backbone_out, keypoints)
                if f.shape[1] != self.config.gnn_input_dim:
                    raise ValueError(
                        f"backbone width {f.shape[1]} does not match configured "
                        f"gnn_input_dim {self.config.gnn_input_dim}"
                    )
                feats.append(f)
                graphs.append(build_graph(keypoints))
                glob, glob_cache = global_token(backbone_out, self.store)
                globs.append(glob)
                glob_caches.append(glob_cache)
        tokens, gnn_cache = gnn_refine(np.concatenate(feats), batch_graphs(graphs), self.store)
        starts = itertools.accumulate((len(f) for f in feats), initial=0)
        seqs = [FeatureSequence(tokens[s:s + len(f)], g) for s, f, g in zip(starts, feats, globs)]
        per_pair = zip(seqs[0::2], seqs[1::2], glob_caches[0::2], glob_caches[1::2])
        return list(per_pair), gnn_cache

    def forward_pair(self, pair: PairSample):
        """Decoder outputs (f1, f2, snapshots) for one pair."""
        [(seq1, seq2, _, _)], _ = self._encode([pair])
        f1, f2, snapshots, _ = decode(
            seq1, seq2, self.store, self.config.decoder_layers, self.config.heads
        )
        return f1, f2, snapshots

    # ---------------- training ----------------

    def loss_and_grads(self, pairs) -> list[LossReport]:
        """Loss report per pair; accumulates the summed gradients into the store.

        The GNN runs once over all pairs; decoder and loss run forward and
        backward one pair at a time, so one pair's decoder caches are alive.
        """
        encoded, gnn_cache = self._encode(pairs)
        cfg, d = self.config, self.config.d_model
        reports, g_tokens = [], []
        for pair, (seq1, seq2, glob1, glob2) in zip(pairs, encoded):
            f1, f2, snapshots, dec_caches = decode(
                seq1, seq2, self.store, cfg.decoder_layers, cfg.heads
            )
            report, loss_cache = total_loss(
                f1.tokens, f2.tokens, snapshots, pair.truth,
                float(self.store.value("loss.tau_raw")), cfg.layer_loss_p, cfg.infonce_mode,
            )
            g_f1, g_f2, snapshot_grads, g_tau = total_loss_backward(loss_cache)
            self.store.add_grad("loss.tau_raw", g_tau)
            g_t1, g_g1, g_t2, g_g2 = decode_backward(
                dec_caches, self.store, g_f1, np.zeros(d), g_f2, np.zeros(d),
                snapshot_grads,
            )
            global_token_backward(glob1, g_g1, self.store)
            global_token_backward(glob2, g_g2, self.store)
            g_tokens += [g_t1, g_t2]
            reports.append(report)
        gnn_refine_backward(gnn_cache, np.vstack(g_tokens), self.store)
        return reports

    # ---------------- inference ----------------

    def match_pair(self, pair: PairSample) -> tuple[Matching, TransportPlan, np.ndarray]:
        """Run inference: returns (matching, transport plan, affinity matrix)."""
        f1, f2, _ = self.forward_pair(pair)
        C = affinity(f1.tokens, f2.tokens)
        plan = sinkhorn_log(C, self.config.sinkhorn_temperature, self.config.sinkhorn_iters)
        return decode_matching(plan), plan, C
