(** Hierarchical span tracer.

    A trace is a forest of spans: named intervals on a nanosecond clock
    with parent/child structure (the innermost open span is the parent
    of any span started inside it) and [key = value] attributes.

    The {!disabled} tracer is a zero-cost sink: {!with_span} on it calls
    its body directly — no allocation, no clock read — so every operator
    can accept a [?trace] argument defaulting to [disabled] without
    penalizing untraced runs.

    Span creation takes a mutex, so a tracer may be shared across
    domains; the open-span stack is global to the tracer, so only the
    spawning domain should open spans during a parallel section
    ([Corpus.run] evaluates each document with tracing disabled). *)

type span = {
  id : int;  (** unique within the tracer, in start order from 0 *)
  parent : int;  (** parent span id, [-1] for roots *)
  name : string;
  start_ns : int;
  mutable stop_ns : int;  (** = [start_ns - 1] while still open *)
  mutable attrs : (string * Json.t) list;  (** in insertion order *)
}

type t

val disabled : t
(** The no-op tracer: every operation returns immediately. *)

val create : ?clock:Clock.t -> unit -> t
(** A live tracer (default clock {!Clock.monotonic}; pass
    {!Clock.counter} for deterministic tests). *)

val is_enabled : t -> bool

val with_span : t -> ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] opens a span, runs [f], closes the span (also
    on exception).  Spans started by [f] become children. *)

val add_attr : t -> string -> Json.t -> unit
(** Attach an attribute to the innermost open span (for values only
    known mid-span, e.g. output cardinality).  No-op when disabled or
    when no span is open. *)

val duration_ns : span -> int
(** Span duration; 0 for a span that never closed. *)

val spans : t -> span list
(** Completed and still-open spans, in start order. *)

val root_ns : t -> int
(** Total duration of root spans — the traced wall time. *)
