# Shared by the CI steps that talk to a live gmdf_serve. Source it from
# the build directory, then start the server with the flags a step needs:
#
#   . ../.github/start_serve.sh
#   start_serve --port 0 --threads 4
#
# start_serve runs ./gmdf_serve in the background, logging to serve.log,
# and sets SERVE_PID and PORT from its `listening` line. It fails, with
# the log on stderr, if the server exits or prints no such line within
# 10 s.
start_serve() {
  ./gmdf_serve "$@" > serve.log 2>&1 &
  SERVE_PID=$!
  local deadline=$((SECONDS + 10))
  until grep -q '^listening' serve.log; do
    if ! kill -0 "$SERVE_PID" 2>/dev/null || [ "$SECONDS" -ge "$deadline" ]; then
      echo "gmdf_serve $* printed no 'listening' line within 10 s:" >&2
      cat serve.log >&2
      kill "$SERVE_PID" 2>/dev/null
      return 1
    fi
    sleep 0.1
  done
  PORT=$(sed -n 's/^listening [^:]*:\([0-9]*\).*/\1/p' serve.log)
}
