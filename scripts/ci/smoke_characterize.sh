#!/usr/bin/env bash
# Characterization pass smoke: on a subset of the suite that mirrors its
# mix (base-ISA, DSP-extension, bit-extension and mixed-extension
# programs), the RTL switching-activity walk riding on the single
# simulation pass must cost at most MAX_REFERENCE_COST_RATIO times the
# pass it rides on.  That is bench_characterize.py --check's contract.
# Run identically by CI and locally:  bash scripts/ci/smoke_characterize.sh
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$SCRIPT_DIR/../.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

python "$ROOT/benchmarks/bench_characterize.py" \
    --programs tp01_alu_mix tp10_dcache_thrash tv01_mul16_dense tv06_dsp_all \
        tv07_gf_dense tv12_bit_all tx01_mix_mul \
    --output "$WORK/characterize-smoke.json" --check
echo "smoke_characterize: OK"
