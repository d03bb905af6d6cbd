#!/bin/sh
# Markdown link check for the repo's top-level docs.
#
# Verifies, for every inline markdown link in the checked files:
#   * local file targets exist (relative to the repo root);
#   * `#anchor` fragments (with or without a file part) resolve to a
#     heading in the target file, using GitHub's slug rules (lowercase,
#     spaces to dashes, punctuation dropped).
#
# Additionally verifies every backtick-quoted `path:line` anchor (the
# concordance style of PROTOCOLS.md, e.g. `crates/core/src/token.rs:101`):
# the file must exist and actually have that many lines. This is what
# catches concordance rows whose file was split/renamed away (the
# motivating bug: refs into the pre-split `crates/engine/src/compiled.rs`)
# or whose target drifted past the end of the file. Where a ref follows
# a backtick-quoted symbol, `` `Symbol` (`path:line`) ``, the symbol's
# last `::` segment must also appear within 3 lines of the cited line:
# that catches in-range drift, where a ref still names a live line that
# is no longer the symbol's. In PROTOCOLS.md every ref must be cited
# that way, so none of its refs is checked against the file length only.
#
# External links (http/https/mailto) are intentionally skipped — CI and
# the dev environment are offline. Usage:
#
#   tools/check-md-links.sh [FILE.md ...]     # default: the doc set below
#
# Exits nonzero listing every broken link.
set -eu

cd "$(dirname "$0")/.."

FILES="${*:-README.md ARCHITECTURE.md BENCH.md PROTOCOLS.md CHANGES.md}"

status=0

# github_slug TEXT -> slug on stdout (newline-terminated)
github_slug() {
    printf '%s\n' "$1" |
        tr '[:upper:]' '[:lower:]' |
        sed -e 's/`//g' -e 's/[^a-z0-9 _-]//g' -e 's/ /-/g'
}

# anchors FILE -> one slug per heading on stdout (fenced code blocks,
# whose `# comment` lines are not headings, are skipped)
anchors() {
    awk '/^```/ { fence = !fence; next } !fence' "$1" |
        grep -E '^#{1,6} ' | sed -E 's/^#{1,6} //' | while IFS= read -r h; do
        github_slug "$h"
    done
}

for file in $FILES; do
    if [ ! -f "$file" ]; then
        echo "MISSING FILE: $file (not in the doc set?)" >&2
        status=1
        continue
    fi
    # Extract inline link targets: [text](target). One per line; tolerate
    # several links per line. Reference-style links are not used in this
    # repo's docs. Split on newlines only, so targets containing spaces
    # survive. (Known limitation: duplicate headings get no GitHub-style
    # "-1" suffix in anchors(); none of the checked docs use them.)
    targets=$(grep -oE '\]\([^)]+\)' "$file" | sed -e 's/^](//' -e 's/)$//' || true)
    old_ifs=$IFS
    IFS='
'
    for target in $targets; do
        IFS=$old_ifs
        case "$target" in
            http://*|https://*|mailto:*) continue ;;
        esac
        path=${target%%#*}
        fragment=""
        case "$target" in
            *'#'*) fragment=${target#*#} ;;
        esac
        # Resolve the file part (empty path = same file).
        if [ -n "$path" ]; then
            if [ ! -e "$path" ]; then
                echo "$file: broken path: $target" >&2
                status=1
                continue
            fi
            anchor_file=$path
        else
            anchor_file=$file
        fi
        # Resolve the fragment against the target file's headings.
        if [ -n "$fragment" ]; then
            case "$anchor_file" in
                *.md) ;;
                *) continue ;;  # anchors into non-markdown files: skip
            esac
            if ! anchors "$anchor_file" | grep -qxF "$fragment"; then
                echo "$file: broken anchor: $target" >&2
                status=1
            fi
        fi
    done
    IFS=$old_ifs

    # `path:line` anchors: the path part must exist and contain at
    # least `line` lines. Matches backtick-quoted tokens with a file
    # extension, a colon and a line number.
    refs=$(grep -oE '`[A-Za-z0-9_./-]+\.[A-Za-z0-9]+:[0-9]+`' "$file" | tr -d '`' | sort -u || true)
    for ref in $refs; do
        ref_path=${ref%:*}
        ref_line=${ref##*:}
        if [ ! -f "$ref_path" ]; then
            echo "$file: dangling path:line anchor (file missing): $ref" >&2
            status=1
            continue
        fi
        total=$(wc -l <"$ref_path")
        if [ "$ref_line" -gt "$total" ]; then
            echo "$file: dangling path:line anchor (only $total lines): $ref" >&2
            status=1
        fi
    done

    # PROTOCOLS.md: no ref without a backtick-quoted symbol before it.
    if [ "$file" = PROTOCOLS.md ]; then
        bare=$(sed -E 's/`[^`]+` \(`[A-Za-z0-9_./-]+\.[A-Za-z0-9]+:[0-9]+`//g' "$file" |
            grep -oE '`[A-Za-z0-9_./-]+\.[A-Za-z0-9]+:[0-9]+`' | tr -d '`' || true)
        for ref in $bare; do
            echo "$file: path:line anchor without a \`Symbol\` (...) before it: $ref" >&2
            status=1
        done
    fi

    # `Symbol` (`path:line`) pairs: the symbol's last `::` segment
    # (argument lists and generics dropped; any name of a `{a,b}` group)
    # must appear as a word within 3 lines of the cited line, so a ref
    # that drifted onto unrelated code fails even inside the file.
    pairs=$(grep -oE '`[^`]+` \(`[A-Za-z0-9_./-]+\.[A-Za-z0-9]+:[0-9]+`' "$file" | sort -u || true)
    IFS='
'
    for pair in $pairs; do
        IFS=$old_ifs
        sym=$(printf '%s\n' "$pair" | sed -E 's/^`([^`]+)` \(`.*$/\1/')
        ref=$(printf '%s\n' "$pair" | sed -E 's/^.*\(`([^`]+)`$/\1/')
        ref_path=${ref%:*}
        ref_line=${ref##*:}
        [ -f "$ref_path" ] || continue  # reported above
        # Only Rust-path-shaped symbols (`a::b`, `a::{b,c}`, `f(x)`);
        # prose such as `n = 10⁹` is not a symbol.
        printf '%s\n' "$sym" |
            grep -qE '^[A-Za-z_][A-Za-z0-9_:{},]*(\(.*\)|<.*>)?$' || continue
        names=$(printf '%s\n' "${sym##*::}" | sed -E 's/[(<].*$//' |
            grep -oE '[A-Za-z_][A-Za-z0-9_]*' || true)
        [ -n "$names" ] || continue
        lo=$((ref_line > 3 ? ref_line - 3 : 1))
        window=$(sed -n "${lo},$((ref_line + 3))p" "$ref_path")
        found=0
        for name in $names; do
            if printf '%s\n' "$window" | grep -qwF -- "$name"; then
                found=1
            fi
        done
        if [ "$found" -eq 0 ]; then
            echo "$file: \`$sym\` not within 3 lines of $ref" >&2
            status=1
        fi
    done
    IFS=$old_ifs
done

if [ "$status" -eq 0 ]; then
    echo "check-md-links: OK ($FILES)"
fi
exit "$status"
