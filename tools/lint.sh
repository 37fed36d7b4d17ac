#!/usr/bin/env bash
# clang-tidy over the first-party sources with the repo's .clang-tidy
# profile. The repo's own analyzer, spburst-lint (src/analysis), is not
# run here: it runs inside the tier-1 suite as
# LintTree.RealSourcesLintClean (`ctest -R '^Lint'` runs it alone).
#
# Usage: tools/lint.sh [build-dir] [extra clang-tidy args...]
#
# The build dir must contain compile_commands.json; pass
# -DCMAKE_EXPORT_COMPILE_COMMANDS=ON to cmake (CI does).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-"${repo_root}/build"}"
shift || true

if [[ ! -f "${build_dir}/compile_commands.json" ]]; then
    echo "lint.sh: ${build_dir}/compile_commands.json not found." >&2
    echo "  Configure with: cmake -S '${repo_root}' -B '${build_dir}' \\" >&2
    echo "      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
    exit 2
fi

# Locate clang-tidy: plain name first, then versioned names (newest
# first). The dev container may not ship it — fail with instructions
# rather than silently passing.
tidy=""
for cand in clang-tidy clang-tidy-{21,20,19,18,17,16,15,14}; do
    if command -v "${cand}" >/dev/null 2>&1; then
        tidy="${cand}"
        break
    fi
done
if [[ -z "${tidy}" ]]; then
    echo "lint.sh: clang-tidy not found on PATH." >&2
    echo "  Install it (e.g. 'apt-get install clang-tidy' or an LLVM" >&2
    echo "  release) or run the 'lint' job in CI, which provisions it." >&2
    exit 2
fi

# Lint the first-party sources; tests are covered by the compiler's
# strict-warnings gate (SPBURST_WERROR) and gtest macros trip too many
# readability checks to be worth the noise.
mapfile -t files < <(find "${repo_root}/src" "${repo_root}/bench" \
    "${repo_root}/tools" -name '*.cc' | sort)

echo "lint.sh: ${tidy} over ${#files[@]} files (profile: .clang-tidy)"
"${tidy}" -p "${build_dir}" --quiet "$@" "${files[@]}"
echo "lint.sh: clean"
