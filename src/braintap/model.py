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
    """Parameter container and forward pass for one subject at a time."""

    def __init__(self, cfg: TrainConfig, n_rois: int, n_priors: int):
        self.cfg = cfg
        self.n_rois = n_rois
        self.n_priors = n_priors
        rng = np.random.default_rng(cfg.seed)
        d = cfg.d
        self.enc_fc = enc.EncoderParams.init(rng, n_rois, d, cfg.d_ff, cfg.n_layers)
        self.enc_sc = enc.EncoderParams.init(rng, n_rois, d, cfg.d_ff, cfg.n_layers)
        self.amd_layers = [
            amd_mod.AmdLayerParams.init(rng, d, cfg.d_distill)
            for _ in range(cfg.n_layers)
        ]
        self.spf = spf_mod.SpfParams.init(rng, n_rois, n_priors, d, cfg.z_dim)
        self.head = enc.HeadParams.init(rng, d)

    def named_params(self):
        out = self.enc_fc.named("enc_fc") + self.enc_sc.named("enc_sc")
        for i, layer in enumerate(self.amd_layers):
            out += layer.named(f"amd{i}")
        out += self.spf.named("spf")
        out += self.head.named("head")
        return out

    def parameters(self):
        return [t for _, t in self.named_params()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def _gate(self, x_fc0, x_sc0, priors):
        """SPF gate from the layer-0 tokens of both modalities, or None when
        both SPF components are disabled."""
        cfg = self.cfg
        if not cfg.spf_enabled:
            return None
        z = spf_mod.subject_embedding(x_fc0, x_sc0, self.spf)
        score = spf_mod.score_matrix(
            z, priors, self.spf,
            gspf=cfg.gspf_enabled, pspf=cfg.pspf_enabled,
        )
        return spf_mod.gate(score, cfg.tau_spf)

    def forward(self, fc, sc, priors, detached_ratios=None, record_attention=False):
        """Run one subject; fc and sc are N x N arrays.

        detached_ratios optionally maps layer index -> (beta_bar, gamma_bar)
        frozen copies used inside the distillation loss (finite-difference
        oracle support; see amd.amd_exchange).
        """
        cfg = self.cfg
        x_fc = enc.embed_tokens(ag.Tensor(fc), self.enc_fc)
        x_sc = enc.embed_tokens(ag.Tensor(sc), self.enc_sc)
        gate_matrix = self._gate(x_fc, x_sc, priors)
        bias = None if gate_matrix is None else spf_mod.attention_bias(gate_matrix)

        distill_losses = []
        attention = {}
        for l in range(cfg.n_layers):
            out_fc = enc.encoder_layer(x_fc, self.enc_fc.layers[l], cfg.n_heads,
                                       bias=bias, eta=cfg.eta)
            out_sc = enc.encoder_layer(x_sc, self.enc_sc.layers[l], cfg.n_heads,
                                       bias=bias, eta=cfg.eta)
            x_fc, x_sc = out_fc.tokens, out_sc.tokens
            if record_attention:
                attention[("fc", l)] = out_fc.attention
                attention[("sc", l)] = out_sc.attention
            if cfg.amd_enabled:
                ratios = None if detached_ratios is None else detached_ratios[l]
                ex = amd_mod.amd_exchange(
                    x_fc, x_sc, self.amd_layers[l], cfg.tau_amd,
                    detached_ratios=ratios,
                )
                x_fc, x_sc = ex.x_fc, ex.x_sc
                distill_losses.append(ex.loss)

        logit = enc.classify(x_fc, x_sc, self.head)
        return ForwardResult(
            logit=logit, distill_losses=distill_losses,
            gate=gate_matrix, attention=attention,
        )

    def gate_for(self, subject, priors):
        """Per-subject gate matrix as a plain array (no tape). Runs only the
        token embeddings and SPF, not the encoder layers."""
        with ag.no_grad():
            gate_matrix = self._gate(
                enc.embed_tokens(ag.Tensor(subject.fc), self.enc_fc),
                enc.embed_tokens(ag.Tensor(subject.sc), self.enc_sc),
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
        return amd_mod.report_ratios(self.amd_layers)

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
        return {name: t.data.copy() for name, t in self.named_params()}

    def load_state_arrays(self, state):
        """Copy each named array into its parameter; shapes must match."""
        for name, t in self.named_params():
            stored = state[name]
            if stored.shape != t.data.shape:
                raise ValueError(f"checkpoint shape mismatch for {name}")
            t.data = stored.astype(np.float64)
