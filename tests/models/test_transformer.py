"""Transformer graph builders."""

import dataclasses
import pickle

import pytest

from repro.dataflow.graph import OpKind
from repro.models.catalog import CATALOG, LLAMA2_7B, MISTRAL_7B
from repro.models.transformer import (
    TransformerConfig,
    decode_graph,
    prefill_graph,
    train_graph,
)


class TestConfigValidation:
    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            TransformerConfig("bad", hidden=100, layers=1, heads=3, kv_heads=3,
                              intermediate=10, vocab=10)

    def test_bad_kv_grouping_rejected(self):
        with pytest.raises(ValueError):
            TransformerConfig("bad", hidden=64, layers=1, heads=8, kv_heads=3,
                              intermediate=10, vocab=10)

    def test_kv_bytes_per_token(self):
        # 2 (K and V) * layers * kv_dim * 2 bytes.
        assert LLAMA2_7B.kv_bytes_per_token() == 2 * 32 * 4096 * 2


def _weight_bytes_formula(cfg):
    embed = 2 * cfg.vocab * cfg.hidden
    layer_params = cfg.layers * cfg.params_per_layer
    stored = embed + cfg.hidden + round(layer_params * (1.0 - cfg.sparsity))
    return stored * cfg.dtype.size_bytes


@pytest.mark.parametrize("cfg", list(CATALOG.values()), ids=list(CATALOG))
class TestCachedWeightBytes:
    """``weight_bytes`` is computed once per config and cached on it."""

    def test_cached_value_equals_formula(self, cfg):
        assert cfg.weight_bytes == _weight_bytes_formula(cfg)
        assert vars(cfg)["weight_bytes"] == cfg.weight_bytes

    def test_replace_computes_a_fresh_value(self, cfg):
        cfg.weight_bytes  # cache the original's value first
        sparsity = 0.5 if cfg.sparsity != 0.5 else 0.25
        other = dataclasses.replace(cfg, sparsity=sparsity)
        assert "weight_bytes" not in vars(other)
        assert other.weight_bytes == _weight_bytes_formula(other)
        assert other.weight_bytes != cfg.weight_bytes

    def test_equality_and_hash_see_fields_only(self, cfg):
        cfg.weight_bytes
        twin = dataclasses.replace(cfg)
        assert "weight_bytes" not in vars(twin)
        assert twin == cfg
        assert hash(twin) == hash(cfg)
        twin.weight_bytes
        assert twin == cfg
        assert hash(twin) == hash(cfg)

    def test_pickle_round_trip_keeps_the_value(self, cfg):
        cfg.weight_bytes
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg
        assert vars(clone)["weight_bytes"] == _weight_bytes_formula(cfg)


class TestPrefillGraph:
    def test_flops_close_to_2_params_tokens(self):
        seq = 2048
        g = prefill_graph(LLAMA2_7B, batch=1, seq=seq)
        dense = 2.0 * LLAMA2_7B.param_count * seq
        # Attention score/value GEMMs add on top of the 2*P*T rule.
        assert dense < g.total_flops < dense * 1.6

    def test_weight_bytes_match_model(self):
        g = prefill_graph(LLAMA2_7B, batch=1, seq=128)
        assert g.weight_bytes == pytest.approx(LLAMA2_7B.weight_bytes, rel=0.01)

    def test_tp_adds_allreduces(self):
        g_tp1 = prefill_graph(LLAMA2_7B, 1, 128, tp=1)
        g_tp8 = prefill_graph(LLAMA2_7B, 1, 128, tp=8)
        ar = [op for op in g_tp8.operators if op.kind == OpKind.ALLREDUCE]
        assert len(ar) == 2 * LLAMA2_7B.layers
        assert not [op for op in g_tp1.operators if op.kind == OpKind.ALLREDUCE]

    def test_seq_beyond_max_rejected(self):
        with pytest.raises(ValueError):
            prefill_graph(LLAMA2_7B, 1, LLAMA2_7B.max_seq + 1)


class TestDecodeGraph:
    def test_decode_flops_tiny_vs_prefill(self):
        p = prefill_graph(LLAMA2_7B, 1, 2048)
        d = decode_graph(LLAMA2_7B, 1, 2048)
        assert d.total_flops < p.total_flops / 500

    def test_kv_cache_is_external_traffic(self):
        g = decode_graph(LLAMA2_7B, batch=1, context=2048)
        cache_inputs = [t for t in g.external_inputs() if "cache_r" in t.name]
        assert len(cache_inputs) == 2 * LLAMA2_7B.layers
        total = sum(t.size_bytes for t in cache_inputs)
        assert total == 2048 * LLAMA2_7B.kv_bytes_per_token()

    def test_sliding_window_caps_attention(self):
        # Mistral at 8K context attends to at most its 4K window.
        wide = decode_graph(MISTRAL_7B, 1, 8192)
        window = decode_graph(MISTRAL_7B, 1, 4096)
        wide_scores = wide["l0.scores"]
        window_scores = window["l0.scores"]
        assert wide_scores.flops == window_scores.flops

    def test_batch_scales_tokens(self):
        b1 = decode_graph(LLAMA2_7B, 1, 512)
        b8 = decode_graph(LLAMA2_7B, 8, 512)
        assert b8["l0.q"].flops == 8 * b1["l0.q"].flops


class TestTrainGraph:
    def test_train_flops_about_3x_prefill(self):
        p = prefill_graph(LLAMA2_7B, 1, 2048)
        t = train_graph(LLAMA2_7B, 1, 2048)
        assert 2.5 < t.total_flops / p.total_flops < 3.6

    def test_has_optimizer_update(self):
        t = train_graph(LLAMA2_7B, 1, 128)
        assert "adam_update" in t

    def test_topologically_valid(self):
        t = train_graph(LLAMA2_7B, 1, 128)
        assert len(t.topological_order()) == len(t)
