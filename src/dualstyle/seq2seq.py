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

Every untaped inference call (``sample_batch``, ``greedy_decode_batch`` and
``log_prob_batch``) runs as two halves of its sources: the calling thread
computes the first, and one module-level worker thread the second
(``_in_halves``).  Rows never interact in inference, a source's k sample rows
stay in one half, and both halves read one ``pad_batch`` of the whole batch,
so every row is computed on the shapes a single pass would give it.  The
split is always in two by source count, whatever the number of cores, so the
outputs do not depend on the core count.  They equal a single pass over all
rows to the last bit except where BLAS rounds a product with the half's row
count differently from one with the whole's: OpenBLAS's small-matrix dgemm
kernel, used below M*N*K = 1e6 on AVX-512 hosts, rounds some output widths
(81, but not 80) otherwise than its blocked kernel, so a toy-size
``log_prob_batch`` value can move by one ulp.  One worker, not two, because
each thread that allocates keeps its own malloc arena, and a third would
raise peak memory for no speed on two cores.
Taped passes stay on the calling thread: splitting them would reorder the
gradient sums, and the tape of each thread records only that thread's ops.

An LSTM input is always an embedding row, so its projection ``x @ W_x + b``
takes one of at most |V| values.  Every LSTM call therefore projects each
distinct token id in its input once (``_lstm``) and the cell gathers the
rows it needs at each step: a decode step of 256 rows projects at most |V|
rows (81 at desk size), and so does a teacher-forced pass over B*T rows.

``_param_shapes`` names every parameter and its shape once, in the order
``__init__`` draws them by ``autodiff.initial_parameters``; that order fixes
every seeded model.  ``load`` builds ``np.empty`` parameters from the same
table for ``checkpoint.load_model`` to check and fill, so a load draws
nothing.

Precision policy: float64 wherever a log-probability comes out, float32
wherever only ids or gradients do.  The parameters are float64 masters, and
so are the Adam state and checkpoints.  Every taped pass
(``taped_gradients``, which ``mle_step`` and the policy-gradient update both
go through) and greedy decoding run on ``_working_copy``, float32 parameters
cast from the masters once per call.  A taped pass upcasts its gradients
before clipping and the update (mixed precision as in Micikevicius et al.
2018, arXiv:1710.03740).  Greedy decoding keeps only the argmax ids, which
float32 changes only where the two best logits lie within its round-off (a
few 1e-5 at desk size).  Sampling and ``log_prob_batch`` scoring read the
masters in float64, so a sample's log-probability still matches its
rescoring to float64 round-off; gradient checks run on the masters too.
"""

from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from . import autodiff as ad
from .checkpoint import load_model, save_model
from .corpus import BOS, EOS, PAD, Sentence, Vocabulary, pad_batch
from .errors import EmptySequenceError
from .optim import AdamState, adam_step, clip_global_norm, collect_grads

MASK_NEG = -1e9  # additive score for padded source positions; exp underflows to 0

# Runs the second half of every untaped inference call (``_in_halves``).
_HALF_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="seq2seq-half")


def _in_halves(n: int, run) -> list:
    """``[run(0, mid), run(mid, n)]`` with ``mid = ceil(n / 2)``: the calling
    thread runs the first half while ``_HALF_WORKER`` runs the second.

    Rows never interact in inference and numpy releases the interpreter lock
    inside its products and ufuncs, so the halves overlap on two cores.  The
    split depends on ``n`` alone, never on the core count.
    """
    mid = (n + 1) // 2
    if mid == n:
        return [run(0, n)]
    second = _HALF_WORKER.submit(run, mid, n)
    try:
        first = run(0, mid)
    finally:
        wait([second])  # even if the first half raises, no half outlives the call
    return [first, second.result()]


def _backward_through(loss_fn, model) -> float:
    """Tape ``loss_fn(model)``, backward through it and return the loss value.

    The tape and every activation it holds are freed on return, before the
    caller copies the gradients it left on ``model``'s parameters.
    """
    with ad.Tape() as tape:
        loss = loss_fn(model)
    ad.backward(tape, loss)
    return float(loss.value)


class Seq2Seq:
    """Single-layer LSTM encoder-decoder with bilinear attention."""

    def __init__(self, vocab: Vocabulary, embed_dim: int, hidden_dim: int,
                 direction: str = "x2y", seed: int = 0):
        self.vocab = vocab
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.direction = direction
        self.params = ad.initial_parameters(self._param_shapes(), seed)

    def _param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Every parameter's shape by name, in the order ``__init__`` draws them."""
        v, e, h = len(self.vocab), self.embed_dim, self.hidden_dim
        return {
            "embed": (v, e),
            "enc_wx": (e, 4 * h),
            "enc_wh": (h, 4 * h),
            "enc_b": (4 * h,),
            "dec_wx": (e, 4 * h),
            "dec_wh": (h, 4 * h),
            "dec_b": (4 * h,),
            "att_w": (h, h),
            "comb_w": (2 * h, h),
            "comb_b": (h,),
            "out_w": (h, v),
            "out_b": (v,),
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
        states = self._lstm("enc", src_ids, None)
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
        """Run the ``lstm`` ("enc" or "dec") LSTM over token ids from state ``hc``
        (``None``: the zero state, which takes no gradient).

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

        def score_half(lo: int, hi: int) -> np.ndarray:
            logits = self._teacher_forced_logits(src_ids[lo:hi], src_mask[lo:hi], tgt_ids[lo:hi])
            nll = ad.cross_entropy(logits, tgt_ids[lo:hi]).value
            return -(nll * tgt_mask[lo:hi]).sum(axis=1)

        return np.concatenate(_in_halves(len(sources), score_half))

    # -- generation ---------------------------------------------------------

    def _run_decode(self, sources: list[Sentence], max_len: int, k: int,
                    rng: np.random.Generator | None, temperature: float):
        """Shared ancestral decode; ``rng is None`` means greedy argmax.

        Returns the (rows, steps) chosen ids, PAD past each row's EOS, and each
        row's total log-probability.  Each half of the sources is decoded by
        ``_decode_rows``.  A sampler draws the uniforms of every step from a
        copy of ``rng``, as the step loop over all rows would draw them, then
        advances ``rng`` past the steps that loop would have run.
        """
        src_ids, src_mask = pad_batch([s.ids for s in sources])
        rows = len(sources) * k
        steps = np.full((rows, max_len), PAD, dtype=np.int64)
        log_probs = np.zeros(rows)
        # (max_len, rows): step t's row is the draw of rng.random(rows) at step t
        uniforms = None if rng is None else copy.deepcopy(rng).random((max_len, rows))

        def decode_half(lo: int, hi: int) -> int:
            rows_of = slice(lo * k, hi * k)
            return self._decode_rows(src_ids[lo:hi], src_mask[lo:hi], k,
                                     None if uniforms is None else uniforms[:, rows_of],
                                     temperature, steps[rows_of], log_probs[rows_of])

        width = max(_in_halves(len(sources), decode_half))
        if rng is not None:
            rng.random(width * rows)
        return steps[:, :width], log_probs

    def _decode_rows(self, src_ids, src_mask, k: int, uniforms: np.ndarray | None,
                     temperature: float, steps: np.ndarray, log_probs: np.ndarray) -> int:
        """Decode k rows per source into ``steps`` and ``log_probs``, in place;
        returns the number of steps run.  ``uniforms[t]`` holds step t's draw
        for each row, finished or not; ``None`` means greedy argmax."""
        keys, attn_bias, hc = self._encode(src_ids, src_mask, k)
        live = np.arange(steps.shape[0])  # the rows that have not emitted EOS yet
        tok = np.full(live.size, BOS, dtype=np.int64)
        for t in range(steps.shape[1]):
            logits, hc = self._decode_step(tok, hc, keys, attn_bias)
            logits = logits.value[:, 0]
            logp = ad.log_softmax_values(logits)
            if uniforms is None:
                chosen = logits.argmax(axis=1)
            else:
                probs = ad.softmax_values(logits / temperature)
                u = uniforms[t, live]
                chosen = (probs.cumsum(axis=1) < u[:, None]).sum(axis=1)
                chosen = np.minimum(chosen, logits.shape[1] - 1)
            steps[live, t] = chosen
            log_probs[live] += logp[np.arange(live.size), chosen]
            going = chosen != EOS
            if not going.all():
                if not going.any():
                    return t + 1
                live, chosen = live[going], chosen[going]
                hc, keys = ad.take(hc, going), ad.take(keys, going)
                attn_bias = attn_bias[going]
            tok = chosen
        return steps.shape[1]

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
        steps, log_probs = self._run_decode(sources, max_len, k, rng, temperature)
        return self._rows_to_sentences(steps), log_probs

    def greedy_decode_batch(self, sources: list[Sentence], max_len: int) -> list[Sentence]:
        """Argmax decoding, run on a float32 working copy: only ids come out."""
        steps, _ = self._working_copy()._run_decode(sources, max_len, 1, None, 1.0)
        return self._rows_to_sentences(steps)

    # -- training -----------------------------------------------------------

    def mle_step(self, pairs: list[tuple[Sentence, Sentence]], opt: AdamState,
                 grad_clip: float) -> float:
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
        work = self._working_copy()
        loss = _backward_through(loss_fn, work)
        grads = {k: g.astype(np.float64) for k, g in collect_grads(work.params).items()}
        return loss, grads

    def _working_copy(self) -> "Seq2Seq":
        """A copy of this model whose parameters are float32 leaves cast from
        the float64 masters, with no gradients: the model of every pass that
        returns only ids or gradients."""
        work = copy.copy(self)
        work.params = {k: ad.parameter(p.value.astype(np.float32))
                       for k, p in self.params.items()}
        return work

    def mean_nll(self, pairs: list[tuple[Sentence, Sentence]]) -> float:
        """Mean per-token NLL without updating (for perplexity tracking)."""
        sources = [p[0] for p in pairs]
        targets = [p[1] for p in pairs]
        logp = self.log_prob_batch(sources, targets)
        n_tokens = sum(len(t.ids) for t in targets)
        return float(-logp.sum() / n_tokens)

    # -- persistence ---------------------------------------------------------

    def clone(self) -> "Seq2Seq":
        other = copy.copy(self)
        other.params = {k: ad.parameter(v.value.copy()) for k, v in self.params.items()}
        return other

    def save(self, path) -> None:
        save_model(path, self, {"kind": "seq2seq", "direction": self.direction,
                                "embed_dim": self.embed_dim, "hidden_dim": self.hidden_dim})

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "Seq2Seq":
        """The model saved at ``path``.  Its parameters start as ``np.empty``
        arrays of ``_param_shapes``, which ``load_model`` checks and fills, so a
        load draws no random numbers."""
        def build(meta):
            model = cls.__new__(cls)
            model.vocab, model.direction = vocab, meta["direction"]
            model.embed_dim, model.hidden_dim = meta["embed_dim"], meta["hidden_dim"]
            model.params = {name: ad.parameter(np.empty(shape))
                            for name, shape in model._param_shapes().items()}
            return model
        return load_model(path, vocab, build)
