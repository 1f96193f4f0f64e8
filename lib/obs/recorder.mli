(** Always-on flight recorder: a fixed-size ring buffer of
    {e wide events} — one JSON-able record per request, overwritten
    oldest-first, readable after the fact without any pre-arming.

    The write path is lock-free: an atomic enablement check, a
    fetch-and-add on the global sequence, whose value modulo the
    capacity picks the slot, and a single word store of the event
    pointer — readers can never observe a torn event, only a slightly
    stale ring.  Readers order the retained events by sequence, so the
    ring holds the newest [capacity] events whichever domains wrote
    them.

    Capacity and enablement come from [XFRAG_RECORDER] at process
    start: unset → enabled with the default capacity (256); a positive
    integer → enabled with that capacity; ["0"]/["off"]/["false"] →
    disabled, making {!record} a single atomic load.  {!set_enabled}
    flips the switch at runtime (benchmarks measure both sides). *)

type event = {
  seq : int;  (** global insertion order, process-wide *)
  id : string;  (** request id ({!Reqid}) *)
  endpoint : string;  (** e.g. ["/query"], ["/corpus/query"], ["cli.corpus"] *)
  strategy : string;
  shards : int;
  queue_ns : int;  (** admission-queue wait before a worker picked it up *)
  parse_ns : int;  (** request-body decode *)
  eval_ns : int;  (** algebra evaluation (or whole corpus run) *)
  merge_ns : int;  (** shard k-way merge *)
  total_ns : int;
  hits : int;
  cache_hits : int;  (** join-cache hits charged to this request's own stats *)
  cache_misses : int;
  doc_errors : int;  (** quarantined per-document failures (corpus runs) *)
  routed_out : int;
      (** documents excluded by posting-list routing (corpus runs) *)
  bound_skips : int;
      (** documents skipped by top-k score-bound termination (corpus runs) *)
  status : int;  (** HTTP status, 0 for CLI *)
  outcome : string;
      (** ["ok"], ["client_error"], ["deadline"], ["fault"], ["error"],
          ["shed"] *)
  site : string;  (** failpoint site when [outcome = "fault"], else [""] *)
}

val enabled : unit -> bool

val set_enabled : bool -> unit

val capacity : unit -> int
(** Ring slots: the configured capacity. *)

val record :
  ?endpoint:string ->
  ?strategy:string ->
  ?shards:int ->
  ?queue_ns:int ->
  ?parse_ns:int ->
  ?eval_ns:int ->
  ?merge_ns:int ->
  ?total_ns:int ->
  ?hits:int ->
  ?cache_hits:int ->
  ?cache_misses:int ->
  ?doc_errors:int ->
  ?routed_out:int ->
  ?bound_skips:int ->
  ?status:int ->
  ?site:string ->
  id:string ->
  outcome:string ->
  unit ->
  unit
(** Append one wide event; a no-op when disabled. *)

val events : unit -> event list
(** Every retained event, oldest first. *)

val last : int -> event list
(** The newest [n] events, oldest first. *)

val find : string -> event option
(** Newest event whose [id] matches. *)

val slow : threshold_ns:int -> event list
(** Retained events with [total_ns ≥ threshold_ns], oldest first. *)

val to_json : event -> Json.t
(** One flat object; [site] omitted when empty, the routing counters
    omitted when both are zero. *)

val dump : ?reason:string -> out_channel -> unit
(** Human-triggered dump (SIGQUIT, pool degradation): a header line
    then one JSON line per event, flushed. *)

val clear : unit -> unit
(** Drop every retained event and reset sequence — tests only. *)
