#!/usr/bin/env bash
# The whole CLI pipeline at toy size, for checking that it is deterministic
# and that a change keeps (or knowingly moves) every artifact.
#
#     tools/toy_pipeline.sh OUT_DIR
#
# OUT_DIR must not exist.  It runs, in OUT_DIR: synth -> pretrain-classifier
# -> pretrain -> train -> both ablations -> transfer + evaluate on the test
# split for {best, last, pre} x {x2y, y2x} -> a second run (run2, dual_lr
# 1e-4) stopped at 15 iterations and then resumed.  Every command's standard
# output goes to OUT_DIR/stdout.log.  Last, OUT_DIR/manifest.sha256 lists the
# sha256 of every file, the log included, by path relative to OUT_DIR, so
# two runs compare with `diff`.  About 10 s on a 2-vCPU machine.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
mkdir "$1"
cd "$1"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"

cat > config.json <<'JSON'
{
  "train_per_style": 300, "dev_per_style": 60, "test_per_style": 60,
  "vocab_size": 80, "max_len": 8,
  "embed_dim": 24, "hidden_dim": 32,
  "cls_embed_dim": 16, "cls_channels": 8, "cls_epochs": 2,
  "pretrain_epochs": 25, "pretrain_lr": 0.01,
  "dual_batch": 32, "sample_size": 2, "dual_lr": 0.001, "anneal_gap": 5.0,
  "patience": 10, "max_iterations": 25
}
JSON
sed 's/"dual_lr": 0.001/"dual_lr": 0.0001/' config.json > config_run2.json

dualstyle() {
    python3 -m dualstyle.cli "$@" >> stdout.log
}

dualstyle synth --config config.json
dualstyle pretrain-classifier --config config.json
dualstyle pretrain --config config.json
dualstyle train --config config.json
dualstyle ablate --config config.json --mode rl_only
dualstyle ablate --config config.json --mode mle_only

for ckpt in best last pre; do
    for direction in x2y y2x; do
        if [ "$direction" = x2y ]; then src=negative tgt=positive; else src=positive tgt=negative; fi
        refs="$(ls data/$src.test.ref*.txt | paste -sd, -)"
        dualstyle transfer --config config.json --direction "$direction" --checkpoint "$ckpt" \
            --in "data/$src.test.txt" --out "out_${ckpt}_$direction.txt"
        dualstyle evaluate --config config.json --outputs "out_${ckpt}_$direction.txt" \
            --refs "$refs" --target-style "$tgt" --inputs "data/$src.test.txt" \
            --report-dir "rep_${ckpt}_$direction"
    done
done

mkdir -p run2/checkpoints
cp runs/default/checkpoints/cls.ckpt runs/default/checkpoints/f_pre.ckpt \
    runs/default/checkpoints/g_pre.ckpt run2/checkpoints/
cp runs/default/vocab.txt run2/
dualstyle train --config config_run2.json --run-dir run2 --max-iterations 15
dualstyle train --config config_run2.json --run-dir run2 --resume

find . -type f ! -name manifest.sha256 | LC_ALL=C sort | xargs sha256sum > manifest.sha256
