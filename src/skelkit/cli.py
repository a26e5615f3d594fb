"""Command line front end.

Each command returns its output; `main` writes it to stdout in one statement
and picks the exit status: 0 on success; 1 when the mathematics rejects the
request (validation failures, domain errors) or stdout's encoding cannot hold
the output; 2 when a document cannot be read or parsed or an -o path cannot
be written.  `main_entry` exits 1, silently, when the reader closed stdout.
No failed command but validate writes stdout.  Output is deterministic: ids
are emitted in sorted order and rationals as exact "p/q" strings.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import birational, essential, modify, skeleton
from .errors import DomainError, ModelFormatError, _echo
from .model import PrimeComponent, SncdModel, validate
from .modelfile import (
    format_fraction,
    load_form,
    load_model,
    parse_fraction,
    serialize_model,
)


_MAX_REDUCE_STEPS = 100_000  # one blow-up and one output line each


def _parse_tuple(model: SncdModel, stratum_id: str, text: str) -> dict[str, Fraction]:
    """Comma-separated rationals in the stratum's vertex order."""
    s = model.stratum(stratum_id)
    parts = text.split(",")  # an empty entry is a value too, and parse_fraction refuses it
    if len(parts) != len(s.vertices):
        raise DomainError(
            f"stratum {stratum_id!r} has {len(s.vertices)} vertices "
            f"({','.join(s.vertices)}), got {len(parts)} values"
        )
    return {v: parse_fraction(p) for v, p in zip(s.vertices, parts)}


def _subcomplex(sub: essential.Subcomplex, model: SncdModel) -> str:
    ids = ",".join(sorted(sub.strata))
    connected = essential.is_connected(model, sub)
    tail = "true" if connected else ("false (empty)" if sub.empty else "false")
    return f"strata={{{ids}}}; connected={tail}\n"


def _data(c: PrimeComponent) -> str:
    """A computed component's N and mu, each printed in full or rejected."""
    return f"N={format_fraction(c.N)}, mu={format_fraction(c.mu)}"


def _document(text: str, out_path, summary: str = "") -> str:
    """The document itself, or, once it is written to out_path, the summary."""
    if not out_path:
        return text
    Path(out_path).write_text(text)  # main reports an OSError
    return summary


def cmd_info(model: SncdModel, args) -> str:
    lines = [
        f"kind: {model.kind}",
        f"m: {model.m}",
        f"ambient_dim: {model.ambient_dim}",
        f"components: {len(model.components)}",
        f"strata: {len(model.strata)}",
    ]
    lines += (f"  {c.id}: N={c.N} mu={c.mu}" for c in model.components)
    return "\n".join(lines) + "\n"


def cmd_weight(model: SncdModel, args) -> str:
    alpha = _parse_tuple(model, args.stratum, args.alpha)
    x = skeleton.SkeletonPoint(args.stratum, alpha)
    return format_fraction(skeleton.weight(model, x)) + "\n"


def cmd_retract(model: SncdModel, args) -> str:
    values = _parse_tuple(model, args.stratum, args.values)
    x = skeleton.retract(model, skeleton.PointSpec(args.stratum, values))
    s = model.stratum(x.stratum)
    pairs = ",".join(f"{v}={format_fraction(x.alpha[v])}" for v in s.vertices)
    return f"stratum={x.stratum}; alpha={pairs}\n"


def cmd_classify(model: SncdModel, args) -> str:
    return skeleton.classify_face(model, args.stratum) + "\n"


def cmd_blowup(model: SncdModel, args) -> str:
    if args.stratum and args.point:
        raise DomainError("choose either --stratum or --point, not both")
    if args.stratum:
        out, e_id, _ = modify.blowup_stratum(model, args.stratum)
    elif args.point:
        stratum_id, center_text, codim_text = args.point
        center = tuple(center_text.split(","))  # an empty entry is kept, and refused
        try:
            codim = int(codim_text)
        except ValueError:
            raise DomainError(f"codimension must be an integer, got {_echo(codim_text)}")
        out, e_id, _ = modify.blowup_point(model, stratum_id, center, codim)
    else:
        raise DomainError("blowup needs --stratum or --point")
    summary = f"new vertex: {e_id} ({_data(out.component(e_id))})\n"
    return _document(serialize_model(out), args.output, summary)


def cmd_reduce(model: SncdModel, args) -> str:
    alpha = _parse_tuple(model, args.stratum, args.alpha)
    x = skeleton.SkeletonPoint(args.stratum, alpha)
    skeleton.check_point(model, x)  # the count needs positive coordinates
    steps = modify._reduction_length(x.alpha)
    if steps > _MAX_REDUCE_STEPS:
        raise DomainError(
            f"reducing this point takes {steps} blow-ups, more than the limit of "
            f"{_MAX_REDUCE_STEPS}"
        )
    final, comp_id, trace = modify.reduce_to_divisorial(model, x)
    lines = [
        f"step {k}: center={{{','.join(step.center_vertices)}}} codim={step.codim} "
        f"-> {step.new_vertex} ({_data(final.component(step.new_vertex))})"
        for k, step in enumerate(trace.steps, start=1)
    ]
    lines.append(f"final: {comp_id} ({_data(final.component(comp_id))})")
    return "\n".join(lines) + "\n"


def cmd_ks(model: SncdModel, args) -> str:
    form = load_form(args.form) if args.form else None
    lo, sub = essential.minimal_skeleton(model, form)
    return f"min={format_fraction(lo)}; " + _subcomplex(sub, model)


def cmd_essential(model: SncdModel, args) -> str:
    forms = [load_form(p) for p in args.form]
    return _subcomplex(essential.essential_skeleton(model, forms), model)


def cmd_lct(model: SncdModel, args) -> str:
    threshold, pair = birational.threshold_locus(model)
    ids = ",".join(sorted(pair.strata))
    return f"lct={format_fraction(threshold)}; sk_pair={{{ids}}}\n"


def cmd_report(model: SncdModel, args) -> str:
    return "".join(
        f"component {{{','.join(sorted(block))}}}: threshold locus connected={str(ok).lower()}\n"
        for block, ok in birational.connectedness_report(model)
    )


def cmd_export(model: SncdModel, args) -> str:
    text = serialize_model(model) if args.format == "structured" else _to_dot(model)
    return _document(text, args.output)


def _to_dot(model: SncdModel) -> str:
    """Graphviz document: one node per stratum, edges along the face maps."""
    try:
        marked = essential.ks_skeleton(model).strata
    except DomainError:
        marked = frozenset()  # pole-carrying data has no marked locus
    lines = ["graph dual_complex {"]
    for s in model.strata:
        if len(s.vertices) == 1:
            c = model.component(s.vertices[0])
            label = f"{s.id}: {c.id} (N={c.N}, mu={c.mu})"
        else:
            label = f"{s.id}: {{{','.join(s.vertices)}}}"
        attrs = [f"label={_dot(label)}"]
        if s.id in marked:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightgrey")
        lines.append(f'  {_dot(s.id)} [{", ".join(attrs)}];')
    for s in model.strata:
        for v in s.vertices:
            if v in s.face_map:
                lines.append(f"  {_dot(s.id)} -- {_dot(s.face_map[v])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot(text: str) -> str:
    """A DOT quoted string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelkit",
        description="Weighted dual complexes: weights, skeleta and thresholds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="path to a model document")
        p.set_defaults(fn=fn)
        return p

    add("validate", None, "check every structural invariant")
    add("info", cmd_info, "summarize a model")

    p = add("weight", cmd_weight, "weight of a skeleton point")
    p.add_argument("--stratum", required=True)
    p.add_argument("--alpha", required=True, help="comma-separated rationals in vertex order")

    p = add("retract", cmd_retract, "retract component values onto the skeleton")
    p.add_argument("--stratum", required=True)
    p.add_argument("--values", required=True, help="comma-separated rationals in vertex order")

    p = add("classify", cmd_classify, "shape of the weight function on a face")
    p.add_argument("--stratum", required=True)

    p = add("blowup", cmd_blowup, "blow up a stratum closure or a generic point")
    p.add_argument("--stratum")
    p.add_argument(
        "--point",
        nargs=3,
        metavar=("STRATUM", "CENTER", "CODIM"),
        help="maximal stratum, comma-separated center components, codimension",
    )
    p.add_argument("-o", "--output", help="write the new model here instead of stdout")

    p = add("reduce", cmd_reduce, "blow up until a point becomes divisorial")
    p.add_argument("--stratum", required=True)
    p.add_argument("--alpha", required=True)

    p = add("ks", cmd_ks, "minimal-weight skeleton of the model's form")
    p.add_argument("--form", help="optional form document to overlay")

    p = add("essential", cmd_essential, "union of minimal-weight skeleta of forms")
    p.add_argument("--form", action="append", required=True, help="form document (repeatable)")

    add("lct", cmd_lct, "log canonical threshold and its locus")
    add("report", cmd_report, "threshold-locus connectivity per component")

    p = add("export", cmd_export, "export the complex for external tools")
    p.add_argument("--format", choices=("graph", "structured"), default="graph")
    p.add_argument("-o", "--output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        model = load_model(args.model)
        report = validate(model)
        if args.command == "validate":  # the report is the output
            text, status = f"{report}\n", (0 if report.ok else 1)
        elif not report.ok:
            raise DomainError(f"{args.model} is not a valid model:\n{report}")
        else:
            text, status = args.fn(model, args), 0
    except ModelFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an -o path; the loaders raise theirs as ModelFormatError
        print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(text)  # encoded whole before any of it is written
    except UnicodeEncodeError as exc:
        print(f"error: stdout's encoding {exc.encoding} cannot hold the output", file=sys.stderr)
        return 1
    return status


def main_entry():
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; keep the exit's flush silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)


if __name__ == "__main__":
    main_entry()
