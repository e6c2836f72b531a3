#!/usr/bin/env bash
# Static-analysis gate (DESIGN.md §11):
#
#   1. Build dbx_lint and run it over src/ bench/ tests/ — any finding fails.
#   2. Self-test: seed one violation per rule class (R1-R4, R6) into a
#      scratch tree and assert dbx_lint catches each. A linter that silently
#      stopped matching would otherwise pass stage 1 forever.
#   3. clang-tidy over compile_commands.json when the tool exists — findings
#      FAIL the stage (WarningsAsErrors in .clang-tidy). The CI image is
#      gcc-only, so absence is an announced skip, not a failure.
set -euo pipefail
cd "$(dirname "$0")/.."

fail() { echo "LINT CHECK FAILED: $*" >&2; exit 1; }

cmake -B build >/dev/null || fail "configure"
cmake --build build -j "$(nproc)" --target dbx_lint >/dev/null || fail "build dbx_lint"
LINT=build/tools/dbx_lint/dbx_lint

echo "== dbx_lint over the tree"
"$LINT" --root . src bench tests || fail "dbx_lint findings in the tree"

echo "== dbx_lint self-test (seeded violations)"
SEED_DIR=$(mktemp -d)
trap 'rm -rf "$SEED_DIR"' EXIT
mkdir -p "$SEED_DIR/src/core" "$SEED_DIR/src/util"

# One violation per rule class; each file must produce the named rule.
cat > "$SEED_DIR/src/core/seed_r1.cc" <<'EOF'
int Roll() { return rand(); }
EOF
cat > "$SEED_DIR/src/core/seed_r2.h" <<'EOF'
#include "src/util/status.h"
namespace dbx {
Status DoThing();
}  // namespace dbx
EOF
cat > "$SEED_DIR/src/core/seed_r3.cc" <<'EOF'
#include <mutex>
class Counter {
 public:
  void Bump() { mu_.lock(); ++n_; mu_.unlock(); }
 private:
  std::mutex mu_;
  int n_ = 0;
};
EOF
cat > "$SEED_DIR/src/util/seed_r4.cc" <<'EOF'
#include "src/obs/trace.h"
EOF
# R4's reverse direction: a library layer reaching up into the server.
mkdir -p "$SEED_DIR/src/query"
cat > "$SEED_DIR/src/query/seed_r4_server.cc" <<'EOF'
#include "src/server/dispatcher.h"
EOF
# R4's storage back-edge: only engine/session/server glue may see storage.
cat > "$SEED_DIR/src/core/seed_r4_storage.cc" <<'EOF'
#include "src/storage/storage.h"
EOF
# R6: a mutex member that guards nothing — no DBX_GUARDED_BY(mu_) sibling.
cat > "$SEED_DIR/src/core/seed_r6.h" <<'EOF'
#include <mutex>
class Registry {
 private:
  mutable std::mutex mu_;
  int entries_ = 0;
};
EOF

expect_rule() {  # expect_rule <rule> <relpath>
  local rule="$1" file="$2" out
  out=$("$LINT" --root "$SEED_DIR" "${file%%/*}" 2>/dev/null) && \
    fail "self-test: seeded $rule violation in $file not caught"
  echo "$out" | grep -q "\[$rule\]" || \
    fail "self-test: expected [$rule] finding for $file, got: $out"
  echo "   caught [$rule] in $file"
}

expect_rule determinism      src/core/seed_r1.cc
expect_rule nodiscard        src/core/seed_r2.h
expect_rule lock-discipline  src/core/seed_r3.cc
expect_rule layering         src/util/seed_r4.cc
expect_rule layering         src/query/seed_r4_server.cc
expect_rule layering         src/core/seed_r4_storage.cc
expect_rule guarded-by       src/core/seed_r6.h
rm -rf "$SEED_DIR"/src/core/* "$SEED_DIR"/src/util/* "$SEED_DIR"/src/query/*

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy"
  [ -f build/compile_commands.json ] || fail "missing compile_commands.json"
  git ls-files 'src/*.cc' | xargs clang-tidy -p build --quiet \
    || fail "clang-tidy findings"
else
  echo "== clang-tidy not installed; skipping (gcc-only image)"
fi

echo "LINT CHECKS PASSED"
