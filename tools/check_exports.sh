#!/bin/sh
# Dead-export lint: every top-level `val` in the given interfaces (by
# default every lib/**/*.mli) must be referenced from some source file
# other than its own module's .ml/.mli.
#
#   tools/check_exports.sh                  # all of lib
#   tools/check_exports.sh lib/hw/cpu.mli   # just these
#
# A reference is, outside comments and string literals:
#   - a qualified use, `Cpu.step` (also through `Vmm_hw.Cpu.step` or an
#     alias such as `module C = Vmm_hw.Cpu`), or
#   - the bare name in a file that opens the module: `open Cpu`,
#     `let open Cpu in` or a local open `Cpu.( ... )`.
# The scan is textual, so a name used unqualified in an opening file
# counts even when it means something else there; confirm each deletion
# by building (the dev profile rejects an unused value).  Vals inside
# nested signatures are not checked.
#
# Exits 1 and lists each unreferenced `Module.val` when there is one,
# 2 on a usage error.
set -eu
cd "$(dirname "$0")/.."

# Exports kept without a caller, each with its reason:
#   Monitor.guest_cpl, Monitor.guest_iht: hooks for the transparency and
#     non-interference properties (ROADMAP items 4 and 5);
#   every val in the "Instruction helpers" section of lib/hw/asm.mli:
#     the assembler DSL has one builder per instruction, used or not.
ALLOW="Monitor.guest_cpl Monitor.guest_iht"
DSL=lib/hw/asm.mli

if [ $# -eq 0 ]; then
  set -- $(find lib -name '*.mli' | sort)
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Mirror every source file with comments (nested) and the contents of
# string and character literals removed.
find lib bin bench test examples tools -name '*.ml' -o -name '*.mli' 2>/dev/null \
  | while read -r f; do
      mkdir -p "$tmp/src/$(dirname "$f")"
      awk '
        BEGIN { depth = 0; instr = 0 }
        {
          line = $0
          gsub(/'"'"'\\.'"'"'|'"'"'[^\\'"'"']'"'"'/, "'"'"'_'"'"'", line)
          out = ""
          n = length(line)
          for (i = 1; i <= n; i++) {
            c = substr(line, i, 1); d = substr(line, i, 2)
            if (instr) {
              if (c == "\\") i++
              else if (c == "\"") { instr = 0; if (depth == 0) out = out c }
            } else if (d == "(*") { depth++; i++ }
            else if (depth > 0 && d == "*)") { depth--; i++ }
            else if (c == "\"") { instr = 1; if (depth == 0) out = out c }
            else if (depth == 0) out = out c
          }
          print out
        }' "$f" > "$tmp/src/$f"
    done

status=0
for mli in "$@"; do
  if [ ! -f "$mli" ]; then
    echo "check_exports: no such interface: $mli" >&2
    exit 2
  fi
  base=$(basename "$mli" .mli)
  dir=$(dirname "$mli")
  mod=$(printf '%s' "$base" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  # Lines strictly between dsl_from and dsl_to hold the exempt
  # instruction builders.
  dsl_from=0 dsl_to=0
  if [ "$mli" = "$DSL" ]; then
    range=$(awk '/\{2 Instruction helpers\}/ { f = NR; next }
                 f && /\{2 / { print f, NR; found = 1; exit }
                 END { if (!found) print 0, 0 }' "$mli")
    dsl_from=${range% *} dsl_to=${range#* }
  fi
  # The module's own files are not callers.
  others=$(cd "$tmp/src" && find . -type f \
             ! -path "./$dir/$base.ml" ! -path "./$dir/$base.mli")
  # The module and every alias of it, as one alternation.
  aliases=$(cd "$tmp/src" && printf '%s\n' $others | xargs grep -ohE \
              "module +[A-Z][A-Za-z0-9_']* *= *([A-Z][A-Za-z0-9_]*\.)*$mod\b" \
            | sed -E 's/module +([^ =]+).*/\1/' | sort -u || true)
  names=$(printf '%s\n' "$mod" $aliases | sort -u | paste -sd'|' -)
  openers=$(cd "$tmp/src" && printf '%s\n' $others | xargs grep -lE \
              "open!? +([A-Z][A-Za-z0-9_]*\.)*($names)\b|\b($names)\.\(" || true)
  grep -nE "^val +[a-z_][A-Za-z0-9_']* *:" "$tmp/src/$mli" \
    | sed -E 's/^([0-9]+):val +([^ :]+).*/\1 \2/' \
    | while read -r lineno v; do
        case " $ALLOW " in *" $mod.$v "*) continue ;; esac
        if [ "$lineno" -gt "$dsl_from" ] && [ "$lineno" -lt "$dsl_to" ]; then
          continue
        fi
        if (cd "$tmp/src" && printf '%s\n' $others \
              | xargs grep -qE "\b($names)\.$v\b") then continue; fi
        if [ -n "$openers" ] && (cd "$tmp/src" && printf '%s\n' $openers \
              | xargs grep -qE "(^|[^A-Za-z0-9_'.])$v\b") then continue; fi
        echo "$mli:$lineno: $mod.$v has no reference outside its module"
      done > "$tmp/dead"
  if [ -s "$tmp/dead" ]; then
    cat "$tmp/dead"
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "export check FAILED: delete each value above, or drop it from the" >&2
  echo ".mli when only its own module uses it." >&2
  exit 1
fi
echo "export check passed"
