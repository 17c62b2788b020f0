#!/usr/bin/env python3
"""Checks that every knob declared in a src/ knob table is documented.

A knob table is a `constexpr Knob<S> kNameKnobs[] = {{"key", ...}, ...}`
array (src/util/knobs.hpp); its namespace comes from the
`parse_knobs(cfg, "ns", kNameKnobs, ...)` call that reads it. Every
"<ns>.<key>" must appear in some docs/*.md or README.md, so a knob added
without a docs row fails here.

Usage: tools/check_knob_docs.py [REPO]   (exit 1 listing the missing keys)
"""
import pathlib
import re
import sys


def main():
    repo = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    sources = [p.read_text() for p in sorted((repo / "src").rglob("*.[ch]pp"))]
    namespaces = {}
    tables = {}
    for text in sources:
        for ns, table in re.findall(
                r'parse_knobs\(\w+, "(\w+)", (?:\w+::)*(k\w+Knobs)', text):
            namespaces[table] = ns
        for table, body in re.findall(
                r'Knob<[\w:]+> (k\w+Knobs)\[\] = \{(.*?)\n\};', text, re.S):
            tables[table] = re.findall(r'\{"(\w+)",', body)
    docs = "\n".join(p.read_text() for p in
                     sorted((repo / "docs").glob("*.md")) + [repo / "README.md"])
    missing = []
    for table, keys in sorted(tables.items()):
        if table not in namespaces:
            missing.append(f"{table} (no parse_knobs call names it)")
            continue
        for key in keys:
            name = f"{namespaces[table]}.{key}"
            if not re.search(r"(?<![\w.])" + re.escape(name) + r"(?!\w)", docs):
                missing.append(name)
    if missing:
        print("check_knob_docs: undocumented knobs:\n  " + "\n  ".join(missing))
        return 1
    print(f"check_knob_docs: OK — {sum(map(len, tables.values()))} knobs in "
          f"{len(tables)} tables documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
