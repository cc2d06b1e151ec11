(** JSONL trace encoding: one flat JSON object per event, ["t"] in
    integer virtual nanoseconds, ints for every payload field, and a
    ["s"] string resolving the interned label for kinds that carry one
    ([tx]/[rx]/[col]/[ifq]: frame class, [drop]: reason, [evt]: name).

    The parser accepts exactly what the writer produces (flat objects
    of int and simple-string fields) — the container ships no JSON
    library, and the trace schema needs nothing more. *)

val sink : Bus.t -> out_channel -> Bus.sink
(** A bus sink writing one line per event to [oc].  Each line is built
    in a byte buffer the sink owns and reuses, and written with one
    [output] call; a line allocates nothing.  The caller owns [oc]
    (flush/close when the run ends). *)

type value = Int of int | Float of float | Str of string

val parse_line : string -> (string * value) list option
(** Parse one flat JSON object; [None] on malformed input.  Numbers
    with a ['.'] or an exponent parse as [Float] (the time-series
    sampler's gauge lines), plain integers as [Int]. *)

