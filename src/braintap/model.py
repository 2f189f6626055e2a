"""Full model: two encoders tied by mutual distillation, prior-gated attention,
and a shared classifier head, plus checkpoint (de)serialization."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import amd as amd_mod
from . import autograd as ag
from . import encoder as enc
from . import spf as spf_mod
from .config import TrainConfig

CHECKPOINT_VERSION = 2


@dataclass
class ForwardResult:
    logit: ag.Tensor
    distill_losses: list  # per-exchange scalar Tensors
    gate: ag.Tensor | None  # N x N gate before diagonal handling, or None
    attention: dict = field(default_factory=dict)  # (modality, layer) -> list of maps


class BrainTAP:
    """Parameter dict and forward pass for one subject at a time.

    ``params`` maps each checkpoint name to its Tensor, in a fixed order:
    the FC and SC encoders, one AMD exchange per layer, SPF, then the head.
    """

    def __init__(self, cfg: TrainConfig, n_rois: int, n_priors: int):
        self.cfg = cfg
        self.n_rois = n_rois
        self.n_priors = n_priors
        rng = np.random.default_rng(cfg.seed)
        d = cfg.d
        self.params = {}
        for prefix in ("enc_fc", "enc_sc"):
            enc.init_encoder(rng, self.params, prefix, n_rois, d, cfg.d_ff, cfg.n_layers)
        for l in range(cfg.n_layers):
            amd_mod.init_amd_layer(rng, self.params, f"amd{l}", d, cfg.d_distill)
        spf_mod.init_spf(rng, self.params, "spf", n_rois, n_priors, d, cfg.z_dim)
        enc.init_head(rng, self.params, "head", d)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def _gate(self, x_fc0, x_sc0, priors):
        """SPF gate from the layer-0 tokens of both modalities, or None when
        both SPF components are disabled."""
        cfg = self.cfg
        if not cfg.spf_enabled:
            return None
        z = spf_mod.subject_embedding(x_fc0, x_sc0, self.params, "spf")
        score = spf_mod.score_matrix(
            z, priors, self.params, "spf",
            gspf=cfg.gspf_enabled, pspf=cfg.pspf_enabled,
        )
        return spf_mod.gate(score, cfg.tau_spf)

    def forward(self, fc, sc, priors, detached_ratios=None, record_attention=False):
        """Run one subject; fc and sc are N x N arrays.

        detached_ratios optionally maps layer index -> (beta_bar, gamma_bar)
        frozen copies used inside the distillation loss (finite-difference
        oracle support; see amd.amd_exchange).
        """
        cfg, p = self.cfg, self.params
        x_fc = enc.embed_tokens(ag.Tensor(fc), p, "enc_fc")
        x_sc = enc.embed_tokens(ag.Tensor(sc), p, "enc_sc")
        gate_matrix = self._gate(x_fc, x_sc, priors)
        bias = None if gate_matrix is None else spf_mod.attention_bias(gate_matrix)

        distill_losses = []
        attention = {}
        for l in range(cfg.n_layers):
            out_fc = enc.encoder_layer(x_fc, p, f"enc_fc.layer{l}", cfg.n_heads,
                                       bias=bias, eta=cfg.eta)
            out_sc = enc.encoder_layer(x_sc, p, f"enc_sc.layer{l}", cfg.n_heads,
                                       bias=bias, eta=cfg.eta)
            x_fc, x_sc = out_fc.tokens, out_sc.tokens
            if record_attention:
                attention[("fc", l)] = out_fc.attention
                attention[("sc", l)] = out_sc.attention
            if cfg.amd_enabled:
                ratios = None if detached_ratios is None else detached_ratios[l]
                ex = amd_mod.amd_exchange(
                    x_fc, x_sc, p, f"amd{l}", cfg.tau_amd,
                    detached_ratios=ratios,
                )
                x_fc, x_sc = ex.x_fc, ex.x_sc
                distill_losses.append(ex.loss)

        logit = enc.classify(x_fc, x_sc, p, "head")
        return ForwardResult(
            logit=logit, distill_losses=distill_losses,
            gate=gate_matrix, attention=attention,
        )

    def gate_for(self, subject, priors):
        """Per-subject gate matrix as a plain array (no tape). Runs only the
        token embeddings and SPF, not the encoder layers."""
        with ag.no_grad():
            gate_matrix = self._gate(
                enc.embed_tokens(ag.Tensor(subject.fc), self.params, "enc_fc"),
                enc.embed_tokens(ag.Tensor(subject.sc), self.params, "enc_sc"),
                priors,
            )
        if gate_matrix is None:
            raise ag.ParameterError("gate requested but SPF is disabled in this config")
        return gate_matrix.data

    def predict(self, subject, priors):
        """Disease probability for one subject (no tape)."""
        with ag.no_grad():
            result = self.forward(subject.fc, subject.sc, priors)
        return 1.0 / (1.0 + np.exp(-result.logit.item()))

    def report_ratios(self):
        return amd_mod.report_ratios(
            self.params, [f"amd{l}" for l in range(self.cfg.n_layers)])

    # checkpoint format: npz with a version scalar, the config JSON, model
    # dimensions, and one array per named parameter under "param:<name>"
    def save(self, path):
        arrays = {f"param:{name}": a for name, a in self.state_arrays().items()}
        np.savez(
            path,
            checkpoint_version=np.array(CHECKPOINT_VERSION),
            config_json=np.array(self.cfg.to_json()),
            n_rois=np.array(self.n_rois),
            n_priors=np.array(self.n_priors),
            **arrays,
        )

    @classmethod
    def load(cls, path):
        with np.load(path, allow_pickle=False) as archive:
            version = int(archive["checkpoint_version"])
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            cfg = TrainConfig.from_json(str(archive["config_json"]))
            model = cls(cfg, int(archive["n_rois"]), int(archive["n_priors"]))
            model.load_state_arrays({
                key[len("param:"):]: archive[key]
                for key in archive.files if key.startswith("param:")
            })
        return model

    def state_arrays(self):
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state_arrays(self, state):
        """Copy each named array into its parameter; the names and every
        shape must match the model's."""
        missing = sorted(self.params.keys() - state.keys())
        extra = sorted(state.keys() - self.params.keys())
        if missing or extra:
            raise ValueError(
                f"checkpoint parameters do not match the model: missing {missing}, extra {extra}"
            )
        for name, t in self.params.items():
            stored = state[name]
            if stored.shape != t.data.shape:
                raise ValueError(f"checkpoint shape mismatch for {name}")
            t.data = stored.astype(np.float64)
