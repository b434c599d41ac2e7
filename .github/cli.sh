# Shell helpers for the CI step that runs the command line; source this file
# from the root of the checkout.  The package is imported from its src/.  Reports
# go to $RUNNER_TEMP, a new temporary directory where it is unset (a run by hand).
: "${RUNNER_TEMP:=$(mktemp -d)}"
cli_src="$PWD/src"
strict_json='import json, sys; json.load(sys.stdin, parse_constant=lambda c: sys.exit(f"{sys.argv[1]}: {c} is not JSON"))'

# A call that must exit 0 with nothing on stderr; a --format json report must be JSON
# proper (Infinity, -Infinity and NaN are refused).  The report is left in stdout.txt.
cli() {
  local status=0
  PYTHONPATH="$cli_src" python3 -m cstar_frames.cli "$@" > "$RUNNER_TEMP/stdout.txt" 2> "$RUNNER_TEMP/stderr.txt" || status=$?
  cat "$RUNNER_TEMP/stderr.txt"
  [ "$status" -eq 0 ] && [ ! -s "$RUNNER_TEMP/stderr.txt" ] || return 1
  case " $* " in
    *" --format json "*) python3 -c "$strict_json" "$*" < "$RUNNER_TEMP/stdout.txt" ;;
  esac
}

