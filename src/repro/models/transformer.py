"""Transformer workload models: exact operator graphs from hyperparameters.

Given a :class:`TransformerConfig`, the builders construct full dataflow
graphs for the three phases the paper benchmarks (Table II):

- **prefill** — first-token generation: processes the whole prompt and
  constructs the KV cache; compute-bound,
- **decode** — autoregressive generation with the KV cache: one token per
  step, memory-bound (reads all weights plus the KV cache per token),
- **train** — forward plus backward plus optimizer step.

Graphs are built at PyTorch-operator granularity (the granularity of the
paper's unfused baseline): ~20 operators per decoder layer, covering
norms, projections, RoPE, KV-cache update, attention score/softmax/value,
head-merge shuffles, gated MLPs, residuals, and tensor-parallel
all-reduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.dataflow.graph import (
    AccessPattern,
    DataflowGraph,
    DType,
    TensorSpec,
)
from repro.dataflow.operators import (
    allreduce,
    elementwise,
    embedding,
    gemm,
    kv_append,
    linear,
    norm,
    reshape,
    rope,
    sample,
    softmax,
    tensor,
)


@dataclass(frozen=True)
class TransformerConfig:
    """Architecture hyperparameters of one decoder-only language model."""

    name: str
    hidden: int
    layers: int
    heads: int
    kv_heads: int
    intermediate: int
    vocab: int
    max_seq: int = 4096
    #: Gated MLP (SiLU(gate) * up, three matrices) vs classic two-matrix FFN.
    gated_mlp: bool = True
    #: "rmsnorm" (4 FLOPs/elem) or "layernorm" (6 FLOPs/elem).
    norm_kind: str = "rmsnorm"
    #: "rope" adds rotary ops; "alibi" adds a bias elementwise on scores.
    positional: str = "rope"
    #: Sliding-window attention width (Mistral), or None for full causal.
    sliding_window: Optional[int] = None
    #: Structured weight sparsity fraction (sparseGPT: 0.875).
    sparsity: float = 0.0
    dtype: DType = DType.BF16

    def __post_init__(self) -> None:
        if self.hidden % self.heads != 0:
            raise ValueError(f"{self.name}: hidden not divisible by heads")
        if self.heads % self.kv_heads != 0:
            raise ValueError(f"{self.name}: heads not divisible by kv_heads")
        if self.norm_kind not in ("rmsnorm", "layernorm"):
            raise ValueError(f"{self.name}: unknown norm {self.norm_kind!r}")
        if self.positional not in ("rope", "alibi"):
            raise ValueError(f"{self.name}: unknown positional {self.positional!r}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    @property
    def kv_dim(self) -> int:
        return self.kv_heads * self.head_dim

    @property
    def mlp_matrices(self) -> int:
        return 3 if self.gated_mlp else 2

    @property
    def params_per_layer(self) -> int:
        attn = self.hidden * self.hidden * 2 + self.hidden * self.kv_dim * 2
        mlp = self.mlp_matrices * self.hidden * self.intermediate
        norms = 2 * self.hidden
        return attn + mlp + norms

    @property
    def param_count(self) -> int:
        """Total parameters (dense count; sparsity reduces storage only)."""
        embed = 2 * self.vocab * self.hidden  # input embedding + LM head
        return embed + self.layers * self.params_per_layer + self.hidden

    @cached_property
    def weight_bytes(self) -> int:
        """Bytes to store the model, honouring weight sparsity.

        Computed once per config: the instance is frozen, and the cached
        value lives in the instance ``__dict__``, outside the dataclass
        fields, so equality and hashing still see the fields only.
        """
        embed = 2 * self.vocab * self.hidden
        layer_params = self.param_count - embed - self.hidden
        stored = embed + self.hidden + round(layer_params * (1.0 - self.sparsity))
        return stored * self.dtype.size_bytes

    def kv_bytes_per_token(self) -> int:
        """KV-cache bytes appended per generated/processed token."""
        return 2 * self.layers * self.kv_dim * self.dtype.size_bytes

    @property
    def norm_flops_per_element(self) -> float:
        return 4.0 if self.norm_kind == "rmsnorm" else 6.0


# ----------------------------------------------------------------------
# Graph builders
# ----------------------------------------------------------------------


def _decoder_layer(
    g: DataflowGraph,
    cfg: TransformerConfig,
    layer: int,
    hidden_in: TensorSpec,
    batch: int,
    q_len: int,
    kv_len: int,
    tp: int,
    use_cache: bool,
) -> TensorSpec:
    """Append one decoder layer to ``g``; returns the layer output tensor.

    ``q_len`` is the number of query positions per sample (prompt length
    for prefill, 1 for decode); ``kv_len`` is the attended context length.
    """
    L = f"l{layer}"
    tokens = batch * q_len
    attended = min(kv_len, cfg.sliding_window) if cfg.sliding_window else kv_len

    normed = g.add(
        norm(f"{L}.norm1", hidden_in, f"{L}.norm1.w", f"{L}.norm1.out",
             flops_per_element=cfg.norm_flops_per_element)
    ).outputs[0]

    q = g.add(linear(f"{L}.q", normed, f"{L}.q.w", cfg.hidden, cfg.hidden,
                     tokens, cfg.sparsity, cfg.dtype)).outputs[0]
    k = g.add(linear(f"{L}.k", normed, f"{L}.k.w", cfg.hidden, cfg.kv_dim,
                     tokens, cfg.sparsity, cfg.dtype)).outputs[0]
    v = g.add(linear(f"{L}.v", normed, f"{L}.v.w", cfg.hidden, cfg.kv_dim,
                     tokens, cfg.sparsity, cfg.dtype)).outputs[0]

    if cfg.positional == "rope":
        q = g.add(rope(f"{L}.rope_q", q, f"{L}.rope_q.out")).outputs[0]
        k = g.add(rope(f"{L}.rope_k", k, f"{L}.rope_k.out")).outputs[0]

    cache_shape = (batch, cfg.kv_heads, kv_len, cfg.head_dim)
    g.add(kv_append(f"{L}.kcache_w", k, f"{L}.kcache", cache_shape))
    g.add(kv_append(f"{L}.vcache_w", v, f"{L}.vcache", cache_shape))

    if use_cache:
        # Decode: attention reads the cache built across prior steps. The
        # cache tensors are *external inputs* (big, non-weight) — exactly
        # the traffic that makes decode memory-bound.
        k_src = tensor(f"{L}.kcache_r", cache_shape, cfg.dtype)
        v_src = tensor(f"{L}.vcache_r", cache_shape, cfg.dtype)
    else:
        k_src, v_src = k, v

    bh = batch * cfg.heads
    scores = g.add(
        gemm(f"{L}.scores", q, k_src, f"{L}.scores.out",
             m=q_len, k=cfg.head_dim, n=attended, batch=bh, dtype=cfg.dtype,
             b_pattern=AccessPattern.TRANSPOSE)
    ).outputs[0]
    if cfg.positional == "alibi":
        scores = g.add(
            elementwise(f"{L}.alibi", [scores], f"{L}.alibi.out", 1.0)
        ).outputs[0]
    probs = g.add(softmax(f"{L}.softmax", scores, f"{L}.probs")).outputs[0]
    ctx = g.add(
        gemm(f"{L}.ctx", probs, v_src, f"{L}.ctx.out",
             m=q_len, k=attended, n=cfg.head_dim, batch=bh, dtype=cfg.dtype)
    ).outputs[0]
    merged = g.add(
        reshape(f"{L}.merge_heads", ctx, f"{L}.merged", (tokens, cfg.hidden))
    ).outputs[0]

    attn_out = g.add(linear(f"{L}.o", merged, f"{L}.o.w", cfg.hidden, cfg.hidden,
                            tokens, cfg.sparsity, cfg.dtype)).outputs[0]
    if tp > 1:
        attn_out = g.add(
            allreduce(f"{L}.ar_attn", attn_out, f"{L}.ar_attn.out", tp)
        ).outputs[0]
    resid1 = g.add(
        elementwise(f"{L}.resid1", [attn_out, hidden_in], f"{L}.resid1.out", 1.0)
    ).outputs[0]

    normed2 = g.add(
        norm(f"{L}.norm2", resid1, f"{L}.norm2.w", f"{L}.norm2.out",
             flops_per_element=cfg.norm_flops_per_element)
    ).outputs[0]
    if cfg.gated_mlp:
        gate = g.add(linear(f"{L}.gate", normed2, f"{L}.gate.w", cfg.hidden,
                            cfg.intermediate, tokens, cfg.sparsity, cfg.dtype)).outputs[0]
        up = g.add(linear(f"{L}.up", normed2, f"{L}.up.w", cfg.hidden,
                          cfg.intermediate, tokens, cfg.sparsity, cfg.dtype)).outputs[0]
        act = g.add(
            elementwise(f"{L}.silu", [gate], f"{L}.silu.out", 4.0)
        ).outputs[0]
        fused_mul = g.add(
            elementwise(f"{L}.gate_mul", [act, up], f"{L}.gate_mul.out", 1.0)
        ).outputs[0]
        mlp_in = fused_mul
    else:
        fc1 = g.add(linear(f"{L}.fc1", normed2, f"{L}.fc1.w", cfg.hidden,
                           cfg.intermediate, tokens, cfg.sparsity, cfg.dtype)).outputs[0]
        mlp_in = g.add(
            elementwise(f"{L}.gelu", [fc1], f"{L}.gelu.out", 8.0)
        ).outputs[0]
    down = g.add(linear(f"{L}.down", mlp_in, f"{L}.down.w", cfg.intermediate,
                        cfg.hidden, tokens, cfg.sparsity, cfg.dtype)).outputs[0]
    if tp > 1:
        down = g.add(
            allreduce(f"{L}.ar_mlp", down, f"{L}.ar_mlp.out", tp)
        ).outputs[0]
    out = g.add(
        elementwise(f"{L}.resid2", [down, resid1], f"{L}.resid2.out", 1.0)
    ).outputs[0]
    return out


def prefill_graph(
    cfg: TransformerConfig, batch: int = 1, seq: int = 2048, tp: int = 1
) -> DataflowGraph:
    """First-token generation over a ``seq``-token prompt."""
    _check_args(cfg, batch, seq, tp)
    g = DataflowGraph(f"{cfg.name}-prefill-b{batch}-s{seq}")
    ids = tensor("ids", (batch, seq), DType.INT32)
    hidden = g.add(
        embedding("embed", ids, "embed.table", cfg.vocab, cfg.hidden,
                  batch * seq, cfg.dtype)
    ).outputs[0]
    for layer in range(cfg.layers):
        hidden = _decoder_layer(
            g, cfg, layer, hidden, batch, q_len=seq, kv_len=seq, tp=tp,
            use_cache=False,
        )
    final = g.add(
        norm("final_norm", hidden, "final_norm.w", "final_norm.out",
             flops_per_element=cfg.norm_flops_per_element)
    ).outputs[0]
    logits = g.add(linear("lm_head", final, "lm_head.w", cfg.hidden,
                          cfg.vocab, batch, 0.0, cfg.dtype)).outputs[0]
    g.add(sample("sample", logits, "next_token"))
    return g


def decode_graph(
    cfg: TransformerConfig, batch: int = 1, context: int = 2048, tp: int = 1
) -> DataflowGraph:
    """One autoregressive decode step at ``context`` tokens of KV cache."""
    _check_args(cfg, batch, context, tp)
    g = DataflowGraph(f"{cfg.name}-decode-b{batch}-c{context}")
    ids = tensor("ids", (batch, 1), DType.INT32)
    hidden = g.add(
        embedding("embed", ids, "embed.table", cfg.vocab, cfg.hidden,
                  batch, cfg.dtype)
    ).outputs[0]
    for layer in range(cfg.layers):
        hidden = _decoder_layer(
            g, cfg, layer, hidden, batch, q_len=1, kv_len=context, tp=tp,
            use_cache=True,
        )
    final = g.add(
        norm("final_norm", hidden, "final_norm.w", "final_norm.out",
             flops_per_element=cfg.norm_flops_per_element)
    ).outputs[0]
    logits = g.add(linear("lm_head", final, "lm_head.w", cfg.hidden,
                          cfg.vocab, batch, 0.0, cfg.dtype)).outputs[0]
    g.add(sample("sample", logits, "next_token"))
    return g


def train_graph(
    cfg: TransformerConfig, batch: int = 1, seq: int = 2048, tp: int = 1
) -> DataflowGraph:
    """One training step: forward, backward (~2x forward), optimizer.

    The backward pass is modelled operator-by-operator: each forward GEMM
    contributes a data-gradient GEMM and a weight-gradient GEMM (same
    dims); each elementwise/norm/softmax contributes one gradient op of
    equal size. Optimizer update touches every parameter once.
    """
    fwd = prefill_graph(cfg, batch, seq, tp)
    g = DataflowGraph(f"{cfg.name}-train-b{batch}-s{seq}")
    for op in fwd.topological_order():
        if op.kind.value == "sample":
            continue  # training uses a loss, not sampling
        g.add(op)

    tokens = batch * seq
    loss_in = tensor("lm_head.out", (batch, cfg.vocab), cfg.dtype)
    grad = g.add(
        elementwise("loss_grad", [loss_in], "grad.logits", 2.0)
    ).outputs[0]

    # Backward over layers (coarse per-layer gradient ops with exact GEMM
    # dims; intermediate grads chain so fusion sees a connected region).
    for layer in reversed(range(cfg.layers)):
        L = f"l{layer}"
        for proj, fan_in, fan_out in _layer_projections(cfg):
            w = tensor(f"{L}.{proj}.w.g", (fan_in * fan_out,), cfg.dtype)
            dgrad = gemm(f"{L}.{proj}.dgrad", grad, w, f"{L}.{proj}.dgrad.out",
                         m=tokens, k=fan_out, n=fan_in,
                         sparsity=cfg.sparsity, dtype=cfg.dtype)
            g.add(dgrad)
            act = tensor(f"{L}.{proj}.act", (tokens, fan_in), cfg.dtype)
            g.add(gemm(f"{L}.{proj}.wgrad", dgrad.outputs[0], act,
                       f"{L}.{proj}.wgrad.out", m=fan_out, k=tokens, n=fan_in,
                       sparsity=cfg.sparsity, dtype=cfg.dtype,
                       a_pattern=AccessPattern.TRANSPOSE))
            grad = dgrad.outputs[0]
        grad = g.add(
            elementwise(f"{L}.bwd_ew", [grad], f"{L}.bwd_ew.out", 6.0)
        ).outputs[0]
        if tp > 1:
            grad = g.add(
                allreduce(f"{L}.bwd_ar", grad, f"{L}.bwd_ar.out", tp)
            ).outputs[0]

    # Optimizer step: one fused elementwise pass over all parameters.
    params = tensor("params", (cfg.param_count,), cfg.dtype, is_weight=True)
    g.add(elementwise("adam_update", [params, grad], "params.new", 6.0,
                      out_shape=(cfg.param_count,)))
    return g


def _layer_projections(cfg: TransformerConfig):
    """(name, fan_in, fan_out) of each weighted projection in a layer."""
    projections = [
        ("q", cfg.hidden, cfg.hidden),
        ("k", cfg.hidden, cfg.kv_dim),
        ("v", cfg.hidden, cfg.kv_dim),
        ("o", cfg.hidden, cfg.hidden),
        ("down", cfg.intermediate, cfg.hidden),
    ]
    if cfg.gated_mlp:
        projections += [
            ("gate", cfg.hidden, cfg.intermediate),
            ("up", cfg.hidden, cfg.intermediate),
        ]
    else:
        projections.append(("fc1", cfg.hidden, cfg.intermediate))
    return projections


def _check_args(cfg: TransformerConfig, batch: int, seq: int, tp: int) -> None:
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if seq < 1:
        raise ValueError(f"seq must be >= 1, got {seq}")
    if tp < 1:
        raise ValueError(f"tp must be >= 1, got {tp}")
    if seq > cfg.max_seq:
        raise ValueError(f"{cfg.name}: seq {seq} exceeds max_seq {cfg.max_seq}")
