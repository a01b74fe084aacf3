"""Attention-based recurrent encoder-decoder used for both transfer directions.

One ``Seq2Seq`` instance is one mapping model.  The encoder is one
whole-sequence ``lstm_cell`` node.  With the target known (training and
``log_prob_batch`` scoring) the decoder is one too: the attention context
never feeds back into the decoder LSTM, so attention and the output layer
then run once over all B*T target steps.  Sampling and greedy decoding feed
each emitted token back and so call the same ops once per step, on a
sequence of length 1; the two paths share every layer, so a sample's reported
log-probability agrees with an independent ``log_prob_batch`` call on it.  A
row leaves the step loop once it has emitted EOS: its state, attention keys
and bias are gathered away, so each step computes only the rows still going
(as fairseq's ``SequenceGenerator`` drops finished hypotheses).  The sampler
still draws one uniform per row at every step, finished or not, so the random
stream, and with it every sample, is the one a full-width loop would see.

An LSTM input is always an embedding row, so its projection ``x @ W_x + b``
takes one of at most |V| values.  Every LSTM call therefore projects each
distinct token id in its input once (``_lstm``) and the cell gathers the
rows it needs at each step: a decode step of 256 rows projects at most |V|
rows (81 at desk size), and so does a teacher-forced pass over B*T rows.

Precision policy: the parameters are float64 masters, and so are the Adam
state and checkpoints.  Every taped pass (``taped_gradients``, which
``mle_step`` and the policy-gradient update both go through) runs forward and
backward in float32 on a working copy of the parameters cast from the
masters, and upcasts the gradients before clipping and the update (mixed
precision as in Micikevicius et al. 2018, arXiv:1710.03740).  Everything
else runs in float64: sampling, ``log_prob_batch`` scoring, greedy decoding
and gradient checks on the masters, so a sample's log-probability still
matches its rescoring to float64 round-off.
"""

from __future__ import annotations

import copy

import numpy as np

from . import autodiff as ad
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import BOS, EOS, PAD, Sentence, Vocabulary, pad_batch
from .errors import EmptySequenceError
from .optim import AdamState, adam_step, clip_global_norm, collect_grads

MASK_NEG = -1e9  # additive score for padded source positions; exp underflows to 0


class Seq2Seq:
    """Single-layer LSTM encoder-decoder with bilinear attention."""

    def __init__(self, vocab: Vocabulary, embed_dim: int = 300,
                 hidden_dim: int = 256, direction: str = "x2y", seed: int = 0,
                 init_scale: float = 0.08, embed_scale: float = 0.01):
        self.vocab = vocab
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.direction = direction
        v, e, h = len(vocab), embed_dim, hidden_dim
        rng = np.random.default_rng(seed)

        def uni(*shape):
            return ad.parameter(rng.uniform(-init_scale, init_scale, shape))

        self.params: dict[str, ad.Tensor] = {
            "embed": ad.parameter(rng.normal(0.0, embed_scale, (v, e))),
            "enc_wx": uni(e, 4 * h),
            "enc_wh": uni(h, 4 * h),
            "enc_b": ad.parameter(np.zeros(4 * h)),
            "dec_wx": uni(e, 4 * h),
            "dec_wh": uni(h, 4 * h),
            "dec_b": ad.parameter(np.zeros(4 * h)),
            "att_w": uni(h, h),
            "comb_w": uni(2 * h, h),
            "comb_b": ad.parameter(np.zeros(h)),
            "out_w": uni(h, v),
            "out_b": ad.parameter(np.zeros(v)),
        }

    # -- forward pieces ----------------------------------------------------
    # Recurrent state travels as one (B, 2H) array [h | c]; ``lstm_cell``
    # returns that state after every step, (B, T, 2H).

    def _encode(self, src_ids: np.ndarray, src_mask: np.ndarray, repeat: int = 1):
        """Run the encoder over every step, padding included.

        Returns the attention keys (B, T, H), their score bias (B, T) and the
        final state (B, 2H), taken at each row's last real token.  Keys at
        padded steps get exactly zero attention (their bias is ``MASK_NEG``),
        so the states past a row's end reach neither output nor gradient.
        With ``repeat=k`` the encoder still runs once per source and all three
        are tiled, so rows b*k to b*k+k-1 share source b.
        """
        batch = src_ids.shape[0]
        hc0 = ad.constant(np.zeros((batch, 2 * self.hidden_dim),
                                   dtype=self.params["enc_wh"].value.dtype))
        states = self._lstm("enc", src_ids, hc0)
        keys = ad.take(states, np.s_[..., : self.hidden_dim])
        attn_bias = np.where(src_mask > 0, 0.0, MASK_NEG)
        last = src_mask.sum(axis=1).astype(np.int64) - 1
        hc = ad.take(states, (np.arange(batch), last))
        if repeat > 1:
            keys = ad.repeat_rows(keys, repeat)
            attn_bias = np.repeat(attn_bias, repeat, axis=0)
            hc = ad.repeat_rows(hc, repeat)
        return keys, attn_bias, hc

    def _lstm(self, lstm: str, ids: np.ndarray, hc):
        """Run the ``lstm`` ("enc" or "dec") LSTM over token ids from state ``hc``.

        The input projection ``embed[u] @ W_x + b`` is one (U, 4H) ``affine``
        over the U distinct ids ``u`` in ``ids``; ``lstm_cell`` gathers its rows
        at each step.  (B, T) ids give (B, T, 2H) states.
        """
        p = self.params
        uniq, index = np.unique(ids, return_inverse=True)
        xw = ad.affine(ad.embedding(p["embed"], uniq), p[f"{lstm}_wx"], p[f"{lstm}_b"])
        return ad.lstm_cell(xw, index.reshape(ids.shape), hc, p[f"{lstm}_wh"])

    def _output_logits(self, states, keys, attn_bias):
        """(B, T, V) logits: attention and output layer over decoder states (B, T, 2H)."""
        p = self.params
        h = ad.take(states, np.s_[..., : self.hidden_dim])
        # nested calls let untaped intermediates go as soon as they are used
        h_ctx = ad.concat([h, ad.bilinear_attention(h, keys, attn_bias, p["att_w"])], axis=-1)
        return ad.affine(ad.tanh_affine(h_ctx, p["comb_w"], p["comb_b"]),
                         p["out_w"], p["out_b"])

    def _decode_step(self, tok_ids: np.ndarray, hc, keys, attn_bias):
        """Feed (B,) ids from state ``hc`` as one length-1 sequence; returns
        the (B, 1, V) logits and the (B, 2H) state after the step."""
        states = self._lstm("dec", tok_ids[:, None], hc)
        return self._output_logits(states, keys, attn_bias), ad.take(states, np.s_[:, 0])

    def _teacher_forced_logits(self, src_ids, src_mask, tgt_ids, source_repeat: int = 1):
        """(B, T, V) next-token logits with the target fed in, one node per layer.

        With ``source_repeat=k`` target rows b*k to b*k+k-1 share source b.
        """
        keys, attn_bias, hc = self._encode(src_ids, src_mask, source_repeat)
        dec_in = np.concatenate(
            [np.full((tgt_ids.shape[0], 1), BOS, dtype=np.int64), tgt_ids[:, :-1]], axis=1
        )
        states = self._lstm("dec", dec_in, hc)
        return self._output_logits(states, keys, attn_bias)

    def _teacher_forced_nll(self, src_ids, src_mask, tgt_ids, tgt_mask,
                            row_weights: np.ndarray | None = None,
                            source_repeat: int = 1):
        """Total (optionally row-weighted) NLL over unpadded target positions."""
        logits = self._teacher_forced_logits(src_ids, src_mask, tgt_ids, source_repeat)
        weights = tgt_mask if row_weights is None else tgt_mask * row_weights[:, None]
        return ad.masked_sum(ad.cross_entropy(logits, tgt_ids), weights)

    # -- scoring -----------------------------------------------------------

    def log_prob_batch(self, sources: list[Sentence], targets: list[Sentence]) -> np.ndarray:
        """Teacher-forced total log-probabilities, one per (source, target)."""
        for s in sources + targets:
            if s.ids is None or len(s.ids) == 0:
                raise EmptySequenceError("scoring needs numericalized, non-empty sentences")
        src_ids, src_mask = pad_batch([s.ids for s in sources])
        tgt_ids, tgt_mask = pad_batch([t.ids for t in targets])
        logits = self._teacher_forced_logits(src_ids, src_mask, tgt_ids)
        nll = ad.cross_entropy(logits, tgt_ids).value
        return -(nll * tgt_mask).sum(axis=1)

    # -- generation ---------------------------------------------------------

    def _run_decode(self, src_ids, src_mask, max_len: int, k: int,
                    rng: np.random.Generator | None, temperature: float):
        """Shared ancestral decode; ``rng is None`` means greedy argmax.

        Returns the (rows, steps) chosen ids, PAD past each row's EOS, and each
        row's total log-probability.
        """
        keys, attn_bias, hc = self._encode(src_ids, src_mask, k)
        rows = src_ids.shape[0] * k
        live = np.arange(rows)  # the rows that have not emitted EOS yet
        tok = np.full(rows, BOS, dtype=np.int64)
        log_probs = np.zeros(rows)
        steps = np.full((rows, max_len), PAD, dtype=np.int64)
        for t in range(max_len):
            logits, hc = self._decode_step(tok, hc, keys, attn_bias)
            logits = logits.value[:, 0]
            logp = ad.log_softmax_values(logits)
            if rng is None:
                chosen = logits.argmax(axis=1)
            else:
                probs = ad.softmax_values(logits / temperature if temperature != 1.0 else logits)
                u = rng.random(rows)[live]  # one draw per row, finished or not
                chosen = (probs.cumsum(axis=1) < u[:, None]).sum(axis=1)
                chosen = np.minimum(chosen, logits.shape[1] - 1)
            steps[live, t] = chosen
            log_probs[live] += logp[np.arange(live.size), chosen]
            going = chosen != EOS
            if not going.all():
                if not going.any():
                    return steps[:, : t + 1], log_probs
                live, chosen = live[going], chosen[going]
                hc, keys = ad.take(hc, going), ad.take(keys, going)
                attn_bias = attn_bias[going]
            tok = chosen
        return steps, log_probs

    def _rows_to_sentences(self, steps: np.ndarray) -> list[Sentence]:
        # Rows end at their first EOS; fill tokens past it are never collected.
        # Reserved ids drawn mid-sequence stay in place so that the sentence's
        # ids always rescore to the sampler's reported log-probability.
        out = []
        for row in steps:
            ids = []
            for tok in row:
                ids.append(int(tok))
                if tok == EOS:
                    break
            surface = tuple(self.vocab.token_of(i) for i in ids if i != EOS)
            out.append(Sentence(surface=surface, ids=tuple(ids)))
        return out

    def sample_batch(self, sources: list[Sentence], k: int,
                     rng: np.random.Generator, max_len: int,
                     temperature: float = 1.0) -> tuple[list[Sentence], np.ndarray]:
        """Draw k samples per source; returns row-major (source major) lists."""
        src_ids, src_mask = pad_batch([s.ids for s in sources])
        steps, log_probs = self._run_decode(src_ids, src_mask, max_len, k, rng, temperature)
        return self._rows_to_sentences(steps), log_probs

    def greedy_decode_batch(self, sources: list[Sentence], max_len: int) -> list[Sentence]:
        src_ids, src_mask = pad_batch([s.ids for s in sources])
        steps, _ = self._run_decode(src_ids, src_mask, max_len, 1, None, 1.0)
        return self._rows_to_sentences(steps)

    # -- training -----------------------------------------------------------

    def mle_step(self, pairs: list[tuple[Sentence, Sentence]], opt: AdamState,
                 grad_clip: float = 5.0) -> float:
        """One Adam update on mean per-token cross-entropy; returns pre-update loss."""
        sources = [p[0] for p in pairs]
        targets = [p[1] for p in pairs]
        src_ids, src_mask = pad_batch([s.ids for s in sources])
        tgt_ids, tgt_mask = pad_batch([t.ids for t in targets])
        n_tokens = tgt_mask.sum()
        loss, grads = self.taped_gradients(lambda model: ad.scale(
            model._teacher_forced_nll(src_ids, src_mask, tgt_ids, tgt_mask), 1.0 / n_tokens))
        clip_global_norm(grads, grad_clip)
        adam_step(self.params, grads, opt)
        return loss

    def taped_gradients(self, loss_fn) -> tuple[float, dict[str, np.ndarray]]:
        """Loss and float64 parameter gradients from one float32 taped pass.

        ``loss_fn(model)`` builds the scalar loss on the model it is given: a
        working copy of this one whose parameters are cast to float32 from the
        float64 masters.  The copy starts with no gradients, so none need
        clearing; the gradients come back upcast, ready for clipping and
        ``adam_step`` on the masters.
        """
        work = copy.copy(self)
        work.params = {k: ad.parameter(p.value.astype(np.float32))
                       for k, p in self.params.items()}
        with ad.Tape() as tape:
            loss = loss_fn(work)
        ad.backward(tape, loss)
        grads = {k: g.astype(np.float64) for k, g in collect_grads(work.params).items()}
        return float(loss.value), grads

    def mean_nll(self, pairs: list[tuple[Sentence, Sentence]]) -> float:
        """Mean per-token NLL without updating (for perplexity tracking)."""
        sources = [p[0] for p in pairs]
        targets = [p[1] for p in pairs]
        logp = self.log_prob_batch(sources, targets)
        n_tokens = sum(len(t.ids) for t in targets)
        return float(-logp.sum() / n_tokens)

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: v.value.copy() for k, v in self.params.items()}

    def load_state_dict(self, arrays: dict[str, np.ndarray]) -> None:
        for k, p in self.params.items():
            p.value = arrays[k].copy()

    def clone(self) -> "Seq2Seq":
        other = copy.copy(self)
        other.params = {k: ad.parameter(v.value.copy()) for k, v in self.params.items()}
        return other

    def save(self, path) -> None:
        meta = {
            "kind": "seq2seq",
            "direction": self.direction,
            "vocab_hash": self.vocab.content_hash(),
            "embed_dim": self.embed_dim,
            "hidden_dim": self.hidden_dim,
        }
        save_checkpoint(path, self.state_dict(), meta)

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "Seq2Seq":
        arrays, meta = load_checkpoint(path)
        if meta.get("vocab_hash") != vocab.content_hash():
            raise ValueError("checkpoint was built with a different vocabulary")
        model = cls(vocab, embed_dim=meta["embed_dim"], hidden_dim=meta["hidden_dim"],
                    direction=meta.get("direction", "x2y"), seed=0)
        model.load_state_dict(arrays)
        return model

