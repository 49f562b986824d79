#!/usr/bin/env bash
# Single entry point for the static correctness layer.  Runs, in order:
#   1. ppsc_lint --self-test          (the lint's own fixture corpus)
#   2. ppsc_lint over the tree        (determinism/race rules R1–R6)
#   3. cppcheck over the same tree       (errors fail; warnings advisory)
#   4. clang-tidy over compile_commands.json (curated .clang-tidy profile)
#
# Usage:
#   scripts/run_lint.sh [--build-dir DIR] [--require-clang-tidy]
#                       [--require-cppcheck] [--tidy-jobs N]
#
# cppcheck and clang-tidy are optional locally (the dev container ships
# only g++); when a binary is absent that pass is skipped with a notice.
# CI passes --require-clang-tidy / --require-cppcheck so a missing tool is
# a hard failure there, never a silent green.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build"
require_tidy=0
require_cppcheck=0
tidy_jobs="$(nproc 2>/dev/null || echo 2)"

while [[ $# -gt 0 ]]; do
    case "$1" in
        --build-dir)           build_dir="$2"; shift 2 ;;
        --require-clang-tidy)  require_tidy=1; shift ;;
        --require-cppcheck)    require_cppcheck=1; shift ;;
        --tidy-jobs)           tidy_jobs="$2"; shift 2 ;;
        *) echo "run_lint.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

cd "${repo_root}"

# --- 1+2. ppsc_lint ---------------------------------------------------------
lint_bin="${build_dir}/ppsc_lint"
if [[ ! -x "${lint_bin}" ]]; then
    echo "== building ppsc_lint (not found in ${build_dir}) =="
    if [[ ! -f "${build_dir}/CMakeCache.txt" ]]; then
        cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release \
            -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    fi
    cmake --build "${build_dir}" --target ppsc_lint -j >/dev/null
fi

echo "== ppsc_lint --self-test =="
"${lint_bin}" --self-test

echo "== ppsc_lint over src/ examples/ tests/reference/ tools/ =="
"${lint_bin}" "${repo_root}/src" "${repo_root}/examples" "${repo_root}/tests/reference" \
    "${repo_root}/tools/ppsc_lint/ppsc_lint.cpp"

# --- 3. cppcheck ------------------------------------------------------------
# A second, independent C++ static analyzer: different engine, different
# blind spots than clang-tidy.  Definite errors (null deref, OOB, UB) fail
# the run via --error-exitcode; warning/style output is printed as advisory
# context only.  Inline suppressions use `// cppcheck-suppress <id>` with a
# reason, same audit-trail discipline as ppsc-lint allow().
if command -v cppcheck >/dev/null 2>&1; then
    # Same file set as the ppsc_lint tree pass: the lint fixtures are
    # deliberately pathological and stay out of scope.
    cppcheck_paths=("${repo_root}/src" "${repo_root}/examples" "${repo_root}/tests/reference"
        "${repo_root}/tools/ppsc_lint/ppsc_lint.cpp")
    cppcheck_common=(--std=c++20 --language=c++ --inline-suppr --quiet
        --suppress=missingIncludeSystem -I "${repo_root}/src" -I "${repo_root}/tests")
    echo "== cppcheck (errors are blocking) =="
    cppcheck "${cppcheck_common[@]}" --error-exitcode=1 "${cppcheck_paths[@]}"
    echo "== cppcheck --enable=warning,portability (advisory) =="
    cppcheck "${cppcheck_common[@]}" --enable=warning,portability \
        "${cppcheck_paths[@]}" || \
        echo "== cppcheck advisory findings above (non-blocking) =="
else
    if [[ "${require_cppcheck}" -eq 1 ]]; then
        echo "run_lint.sh: cppcheck required (--require-cppcheck) but not installed" >&2
        exit 1
    fi
    echo "== cppcheck not installed; skipping cppcheck pass (install cppcheck to run it) =="
fi

# --- 4. clang-tidy ----------------------------------------------------------
if ! command -v clang-tidy >/dev/null 2>&1; then
    if [[ "${require_tidy}" -eq 1 ]]; then
        echo "run_lint.sh: clang-tidy required (--require-clang-tidy) but not installed" >&2
        exit 1
    fi
    echo "== clang-tidy not installed; skipping tidy pass (install clang-tidy to run it) =="
    exit 0
fi

compdb="${build_dir}/compile_commands.json"
if [[ ! -f "${compdb}" ]]; then
    echo "== regenerating ${compdb} =="
    cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
fi

# Tidy every first-party translation unit that appears in the compilation
# database (tests are included deliberately: races in test scaffolding have
# burned us before).  GTest/benchmark system headers are excluded by the
# HeaderFilterRegex in .clang-tidy.
mapfile -t tidy_files < <(
    python3 - "${compdb}" "${repo_root}" <<'PY'
import json, sys
compdb, root = sys.argv[1], sys.argv[2]
seen = set()
for entry in json.load(open(compdb)):
    f = entry["file"]
    if not f.startswith(root):
        continue
    rel = f[len(root):].lstrip("/")
    if rel.startswith(("src/", "tools/", "examples/", "tests/")):
        seen.add(f)
print("\n".join(sorted(seen)))
PY
)

echo "== clang-tidy over ${#tidy_files[@]} translation units (jobs=${tidy_jobs}) =="
run_tidy="$(command -v run-clang-tidy || true)"
if [[ -n "${run_tidy}" ]]; then
    "${run_tidy}" -quiet -p "${build_dir}" -j "${tidy_jobs}" "${tidy_files[@]}"
else
    printf '%s\n' "${tidy_files[@]}" | xargs -P "${tidy_jobs}" -n 1 \
        clang-tidy -quiet -p "${build_dir}"
fi

echo "== lint clean =="
