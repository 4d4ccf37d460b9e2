#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# from the repository root. Build output goes to stderr; the result line is
# the last line of stdout.
set -euo pipefail
root=$(pwd)
# --cache=disabled: the build writes nothing outside the checkout.
dune build --root "$root" --cache=disabled --display quiet ./perfbench/main.exe 1>&2
# No kernel-tuning cache: every host runs the default kernel configs, and
# nothing is read from outside the checkout.
export XSC_TUNE_CACHE="$root/_build/perfbench-no-tune-cache"
exec "$root/_build/default/perfbench/main.exe" "$@"
