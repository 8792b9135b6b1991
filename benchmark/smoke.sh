#!/usr/bin/env bash
# Smoke run for CI: every workload for 2 seconds, untraced and traced, with
# the correctness gate on. Under a minute once built. The numbers of so short
# a window mean nothing; the exit status does.
set -euo pipefail
"$(dirname "$0")/run.sh" --seconds 2 --out "$(dirname "$0")/out/smoke.json" "$@"
