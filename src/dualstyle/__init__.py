"""Unsupervised text style transfer with two dual sequence mapping models.

The package couples an attention-based encoder-decoder per transfer
direction, a frozen convolutional style classifier, policy-gradient training
on style/content rewards, template pseudo-parallel warm-up, annealed
back-translation teacher forcing, and a BLEU/accuracy evaluation harness.

Import what you need from its submodules (``from dualstyle.dualrl import
train``).  This file imports nothing, so that ``dualstyle.cli`` can pin the
BLAS thread counts before numpy loads.
"""

__version__ = "0.1.0"
