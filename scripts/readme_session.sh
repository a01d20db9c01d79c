#!/usr/bin/env bash
# The README's CLI session plus the runs that pin its edge cases, written into
# one artifact tree.
#
#   scripts/readme_session.sh OUT THREADS
#
# OUT is the tree to write; THREADS is passed to every montecarlo run.  Every
# artifact is deterministic, so two trees built on one machine, from one
# checkout at any thread count or from two checkouts that claim the same
# numbers, must be identical under `diff -r`.  Compare trees built on one
# machine only: GEMM and SIMD `exp` bits may differ between machines.
#
# The commands run `python -m chronokey.cli`, so the script checks a
# `PYTHONPATH=src` checkout as well as an installed one.  Their stdout, each
# command's summary and "wrote" lines, goes into OUT/stdout.txt with OUT's
# path replaced by the token OUT, so trees built at two roots compare equal;
# stderr (warnings carry source paths and line numbers) is left as it is.
#
# Besides the README's commands: an m=8 sampled-JSA run that fills
# out_of_window and a noiseless one (no dark count, so no round takes the
# multi-click path, and no draw follows the pair's), and a noiseless m=7
# ideal-delta random-assign run (the click positions over ranges 7 and 6, and
# the assignment uniforms, are not drawn).
# A dark-count-heavy m=8 sampled-JSA run (lossless, d = 0.05, discard) puts
# 1e5 live rounds in each shard, about half of them touched by a dark count:
# every shard spans four blocks of live rounds, so the per-block resolution
# of those rounds, and the positioned draws it reads, are pinned at either
# thread count.
# An m=1024 run of 1e7 rounds on the default channel counts its ten shards,
# about 830 live rounds each, on the calling thread at either thread count,
# keeping only the codes its rounds got (its dense tally would take 16 MB).
# Two noiseless m=512 ideal-delta runs of 50000-round shards, every round
# live, pin both counting modes: at 1e5 rounds the 524290-entry tally is
# longer than the run's live rounds, so each block's distinct codes are
# kept and merged; at 1e6 it is not, so they are counted into dense
# tallies.  At 2 threads both go to the pool, whose workers' cells merge.
# analyze and sweep at m=65536 fail if the closed-form key chain ever builds
# the m x m error matrix again (34 GB).
# sampled-JSA runs read the source's closed-form binned statistics; a
# noiseless m=1024 run samples all 1e6 rounds from them, where a grid record
# would need 2**18 points.  analyze and sweep on a channel 400 attenuation
# lengths long, where the transmission is positive but eps*eta**2 underflows,
# must exit 0.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 OUT THREADS" >&2
  exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)  # absolute and normalized, as the commands print it
threads=$2
configs=$(mktemp -d)
trap 'rm -rf "$configs"' EXIT

cat > "$configs/sampled.json" <<'EOF'
{"protocol": {"m": 8},
 "channel": {"pair_probability": 1.0, "detector_efficiency": 1.0, "length": 0.0,
             "dark_probability": 1e-3},
 "simulation": {"rounds": 200000, "seed": 3, "shard_size": 50000,
                "correlation_model": "sampled-jsa", "multi_click_policy": "random-assign"}}
EOF
cat > "$configs/noiseless.json" <<'EOF'
{"protocol": {"m": 8},
 "channel": {"pair_probability": 1.0, "detector_efficiency": 1.0, "length": 0.0,
             "dark_probability": 0.0},
 "simulation": {"rounds": 200000, "seed": 3, "shard_size": 50000,
                "correlation_model": "sampled-jsa", "multi_click_policy": "discard"}}
EOF
cat > "$configs/noiseless7.json" <<'EOF'
{"protocol": {"m": 7},
 "channel": {"pair_probability": 1.0, "detector_efficiency": 1.0, "length": 0.0,
             "dark_probability": 0.0},
 "simulation": {"rounds": 200000, "seed": 5, "shard_size": 50000,
                "correlation_model": "ideal-delta", "multi_click_policy": "random-assign"}}
EOF
cat > "$configs/dark.json" <<'EOF'
{"protocol": {"m": 8},
 "channel": {"pair_probability": 1.0, "detector_efficiency": 1.0, "length": 0.0,
             "dark_probability": 0.05},
 "simulation": {"rounds": 200000, "seed": 17, "shard_size": 100000,
                "correlation_model": "sampled-jsa", "multi_click_policy": "discard"}}
EOF
cat > "$configs/sampled16.json" <<'EOF'
{"protocol": {"m": 16},
 "channel": {"pair_probability": 1.0, "detector_efficiency": 1.0, "length": 0.0,
             "dark_probability": 1e-3},
 "simulation": {"rounds": 200000, "seed": 11, "shard_size": 50000,
                "correlation_model": "sampled-jsa", "multi_click_policy": "random-assign"}}
EOF
cat > "$configs/sampled1024.json" <<'EOF'
{"protocol": {"m": 1024},
 "channel": {"pair_probability": 1.0, "detector_efficiency": 1.0, "length": 0.0,
             "dark_probability": 0.0},
 "simulation": {"rounds": 1000000, "seed": 13, "correlation_model": "sampled-jsa"}}
EOF
cat > "$configs/noiseless512.json" <<'EOF'
{"protocol": {"m": 512},
 "channel": {"pair_probability": 1.0, "detector_efficiency": 1.0, "length": 0.0,
             "dark_probability": 0.0},
 "simulation": {"seed": 19, "shard_size": 50000, "correlation_model": "ideal-delta"}}
EOF
echo '{"protocol": {"m": 1024}}' > "$configs/m1024.json"
echo '{"protocol": {"m": 65536}}' > "$configs/large.json"
echo '{"channel": {"length": 400.0}}' > "$configs/far.json"

: > "$out/stdout.txt"
chronokey() {
  local text
  text=$(python -m chronokey.cli "$@")
  printf '%s\n' "${text//"$out"/OUT}" >> "$out/stdout.txt"
}

chronokey analyze --out "$out"
chronokey feasibility --out "$out"
chronokey sweep --out "$out"
chronokey montecarlo --rounds 1000000 --seed 7 --threads "$threads" --out "$out"
chronokey montecarlo --config "$configs/sampled.json" --threads "$threads" --out "$out/sampled"
chronokey montecarlo --config "$configs/noiseless.json" --threads "$threads" --out "$out/noiseless"
chronokey montecarlo --config "$configs/noiseless7.json" --threads "$threads" --out "$out/noiseless7"
chronokey montecarlo --config "$configs/dark.json" --threads "$threads" --out "$out/dark"
chronokey montecarlo --config "$configs/sampled16.json" --threads "$threads" --out "$out/sampled16"
chronokey montecarlo --config "$configs/sampled1024.json" --threads "$threads" \
  --out "$out/sampled1024"
chronokey montecarlo --config "$configs/m1024.json" --rounds 10000000 --seed 7 \
  --threads "$threads" --out "$out/m1024"
chronokey montecarlo --config "$configs/noiseless512.json" --rounds 100000 \
  --threads "$threads" --out "$out/noiseless512-sparse"
chronokey montecarlo --config "$configs/noiseless512.json" --rounds 1000000 \
  --threads "$threads" --out "$out/noiseless512-dense"
chronokey alphabet-scan --max-bits 16 --out "$out"
chronokey analyze --config "$configs/large.json" --out "$out/large"
chronokey sweep --config "$configs/large.json" --out "$out/large"
chronokey analyze --config "$configs/far.json" --out "$out/far"
chronokey sweep --config "$configs/far.json" --out "$out/far"
