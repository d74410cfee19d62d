#!/usr/bin/env bash
# Net lines of the working tree against a base revision, split by kind:
#
#   library  Rust under crates/*/src/ and src/, up to each file's
#            trailing `#[cfg(test)] mod tests` block
#   tests    those trailing test blocks, plus tests/ and crates/*/tests/
#   docs     Markdown files
#   other    everything else (scripts, examples, manifests, ...)
#
# Usage: scripts/net_loc.sh <base>   (e.g. scripts/net_loc.sh HEAD~1)
# Counts what `git diff <base>` shows, so stage new files first
# (`git add -A`) for them to count.
set -euo pipefail

base=${1:?usage: scripts/net_loc.sh <base>}
cd "$(dirname "$0")/.."

# Prints the line number where a Rust file's last `#[cfg(test)]`
# attribute directly followed by `mod tests` starts, or 0 if it has none.
test_block_start() {
    awk '
        /^#\[cfg\(test\)\]/ { attr = NR; next }
        attr && /^mod tests/ { start = attr }
        /[^[:space:]]/ { attr = 0 }
        END { print start + 0 }
    '
}

declare -A added removed
for kind in library tests docs other; do
    added[$kind]=0
    removed[$kind]=0
done

while IFS= read -r path; do
    case "$path" in
        crates/*/src/*.rs | src/*.rs) kind=library ;;
        tests/* | crates/*/tests/*) kind=tests ;;
        *.md) kind=docs ;;
        *) kind=other ;;
    esac
    old_start=0
    new_start=0
    if [ "$kind" = library ]; then
        if git cat-file -e "$base:$path" 2>/dev/null; then
            old_start=$(git show "$base:$path" | test_block_start)
        fi
        if [ -f "$path" ]; then
            new_start=$(test_block_start <"$path")
        fi
    fi
    # One line per counted diff line: "<kind> + " or "<kind> - ".
    counts=$(git diff -U0 --no-color --no-renames "$base" -- "$path" | awk \
        -v kind="$kind" -v old_start="$old_start" -v new_start="$new_start" '
        function side(start, line) {
            return (kind == "library" && start > 0 && line >= start) ? "tests" : kind
        }
        /^@@/ {
            split($2, o, ","); split($3, n, ",")
            old_ln = substr(o[1], 2) + 0; new_ln = substr(n[1], 2) + 0
            if (o[2] == "0") old_ln++
            if (n[2] == "0") new_ln++
            in_hunk = 1; next
        }
        !in_hunk { next }
        /^\+/ { a[side(new_start, new_ln++)]++; next }
        /^-/ { r[side(old_start, old_ln++)]++; next }
        END {
            for (k in a) print k, "+", a[k]
            for (k in r) print k, "-", r[k]
        }')
    while read -r k sign n; do
        [ -n "${k:-}" ] || continue
        if [ "$sign" = + ]; then
            added[$k]=$((added[$k] + n))
        else
            removed[$k]=$((removed[$k] + n))
        fi
    done <<<"$counts"
done < <(git diff --name-only --no-renames "$base")

printf '%-8s %8s %8s %8s\n' kind added removed net
for kind in library tests docs other; do
    printf '%-8s %8s %8s %8s\n' "$kind" "+${added[$kind]}" "-${removed[$kind]}" \
        "$((added[$kind] - removed[$kind]))"
done
