#!/bin/sh
# End-to-end command-line session: build, verify, transform, plot.
set -e
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== build manifests =="
python3 -m vecwave.cli build --filter haar --d 2 --m 2 --out "$work/haar22.txt"
python3 -m vecwave.cli build --filter db2 --d 1 --m 3 --out "$work/db2m3.txt"
head -1 "$work/db2m3.txt"

echo "== verify (exact profile for haar, sampled for db2) =="
python3 -m vecwave.cli verify --manifest "$work/haar22.txt" --report "$work/haar.csv"
# to a file first: sh has no pipefail, so set -e would miss a failing verify piped into tail
python3 -m vecwave.cli verify --manifest "$work/db2m3.txt" --profile sampled --report "$work/db2.csv" > "$work/db2-verify.out"
tail -1 "$work/db2-verify.out"

echo "== transform round trip =="
python3 - "$work" <<'EOF'
import sys
import numpy as np
from vecwave import VectorSignal, signal_to_bytes
rng = np.random.default_rng(1)
sig = VectorSignal(rng.standard_normal((2, 64, 64)))
open(sys.argv[1] + "/in.vwav", "wb").write(signal_to_bytes(sig))
EOF
python3 -m vecwave.cli transform --in "$work/in.vwav" --manifest "$work/haar22.txt" \
    --out "$work/dec.vdec" --levels 2 --threshold 0.1
# the inverse needs no manifest: the .vdec header fixes its basis
python3 -m vecwave.cli transform --in "$work/dec.vdec" --out "$work/rec.vwav" --inverse
python3 - "$work" <<'EOF'
import sys
import numpy as np
from vecwave import signal_from_bytes
a = signal_from_bytes(open(sys.argv[1] + "/in.vwav", "rb").read())
b = signal_from_bytes(open(sys.argv[1] + "/rec.vwav", "rb").read())
print(f"thresholded round-trip l2 gap: {np.linalg.norm(a.values - b.values):.3f}")
EOF

echo "== plots =="
python3 -m vecwave.cli plot --manifest "$work/haar22.txt" --family Psi5 --j 5 --out "$work/psi5.svg"
python3 -m vecwave.cli build --filter db2 --d 1 --m 1 --out "$work/db2.txt"
python3 -m vecwave.cli plot --manifest "$work/db2.txt" --family Psi1 --j 8 --out "$work/psi.svg"
ls -l "$work"/*.svg
