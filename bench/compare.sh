#!/usr/bin/env bash
# bench/compare.sh A.json[,A2.json,...] B.json[,B2.json,...] — see compare.py.
exec python3 "$(dirname "$0")/compare.py" "$@"
