(* Always-on flight recorder: a ring buffer of wide events, one
   JSON-able record per request.

   Hot path (record): one atomic load to check enablement, one
   fetch-and-add on the global sequence, which also picks the slot, and
   one pointer store into the slot array — no locks, no allocation
   beyond the event record itself.  A slot store is a single word write
   under the OCaml memory model, so readers never observe a torn event
   (they may observe a slightly stale ring, which is fine for
   debugging).  Readers sort the slots by sequence. *)

type event = {
  seq : int;
  id : string;
  endpoint : string;
  strategy : string;
  shards : int;
  queue_ns : int;
  parse_ns : int;
  eval_ns : int;
  merge_ns : int;
  total_ns : int;
  hits : int;
  cache_hits : int;
  cache_misses : int;
  doc_errors : int;
  routed_out : int;
  bound_skips : int;
  status : int;
  outcome : string;
  site : string;
}

let default_capacity = 256

let env_capacity () =
  match Sys.getenv_opt "XFRAG_RECORDER" with
  | None | Some "" -> Some default_capacity
  | Some s -> (
      match String.lowercase_ascii s with
      | "0" | "off" | "false" -> None
      | s -> (
          match int_of_string_opt s with
          | Some n when n > 0 -> Some n
          | _ -> Some default_capacity))

let requested = env_capacity ()

let enabled_flag = Atomic.make (requested <> None)

let slots =
  Array.make (Option.value requested ~default:default_capacity) None

let seq_counter = Atomic.make 0

let enabled () = Atomic.get enabled_flag

let set_enabled b = Atomic.set enabled_flag b

let capacity () = Array.length slots

let clear () =
  Array.fill slots 0 (Array.length slots) None;
  Atomic.set seq_counter 0

let record ?(endpoint = "") ?(strategy = "") ?(shards = 0) ?(queue_ns = 0)
    ?(parse_ns = 0) ?(eval_ns = 0) ?(merge_ns = 0) ?(total_ns = 0) ?(hits = 0)
    ?(cache_hits = 0) ?(cache_misses = 0) ?(doc_errors = 0) ?(routed_out = 0)
    ?(bound_skips = 0) ?(status = 0) ?(site = "") ~id ~outcome () =
  if Atomic.get enabled_flag then begin
    let seq = Atomic.fetch_and_add seq_counter 1 in
    let ev =
      {
        seq;
        id;
        endpoint;
        strategy;
        shards;
        queue_ns;
        parse_ns;
        eval_ns;
        merge_ns;
        total_ns;
        hits;
        cache_hits;
        cache_misses;
        doc_errors;
        routed_out;
        bound_skips;
        status;
        outcome;
        site;
      }
    in
    slots.(seq mod Array.length slots) <- Some ev
  end

let events () =
  Array.fold_left
    (fun acc slot -> match slot with Some ev -> ev :: acc | None -> acc)
    [] slots
  |> List.sort (fun a b -> compare a.seq b.seq)

let last n =
  let evs = events () in
  let len = List.length evs in
  if len <= n then evs else List.filteri (fun i _ -> i >= len - n) evs

let find id =
  List.fold_left
    (fun acc ev -> if ev.id = id then Some ev else acc)
    None (events ())

let slow ~threshold_ns =
  List.filter (fun ev -> ev.total_ns >= threshold_ns) (events ())

let to_json ev =
  let base =
    [
      ("seq", Json.Int ev.seq);
      ("id", Json.String ev.id);
      ("endpoint", Json.String ev.endpoint);
      ("strategy", Json.String ev.strategy);
      ("shards", Json.Int ev.shards);
      ("queue_ns", Json.Int ev.queue_ns);
      ("parse_ns", Json.Int ev.parse_ns);
      ("eval_ns", Json.Int ev.eval_ns);
      ("merge_ns", Json.Int ev.merge_ns);
      ("total_ns", Json.Int ev.total_ns);
      ("hits", Json.Int ev.hits);
      ("cache_hits", Json.Int ev.cache_hits);
      ("cache_misses", Json.Int ev.cache_misses);
      ("doc_errors", Json.Int ev.doc_errors);
      ("status", Json.Int ev.status);
      ("outcome", Json.String ev.outcome);
    ]
  in
  (* Routing counters and [site] are omitted when trivial: most events
     have nothing to say about them, and the stable golden shape
     predates both. *)
  let base =
    if ev.routed_out = 0 && ev.bound_skips = 0 then base
    else
      base
      @ [
          ("routed_out", Json.Int ev.routed_out);
          ("bound_skips", Json.Int ev.bound_skips);
        ]
  in
  Json.Obj (if ev.site = "" then base else base @ [ ("site", Json.String ev.site) ])

let dump ?(reason = "") oc =
  let evs = events () in
  Printf.fprintf oc "xfrag: recorder dump%s (%d event%s)\n"
    (if reason = "" then "" else Printf.sprintf " [%s]" reason)
    (List.length evs)
    (if List.length evs = 1 then "" else "s");
  List.iter (fun ev -> Printf.fprintf oc "%s\n" (Json.to_string (to_json ev))) evs;
  flush oc
