(* The in-process model of a server: the same documents loaded the way
   [xfrag serve] loads them, and every op of a sequence applied through
   the engine's public functions.  After a run it produces the expected
   answer for each reply; in the traced run it is the path whose layers
   are timed one call at a time. *)

module Corpus = Xfrag_core.Corpus
module Context = Xfrag_core.Context
module Exec = Xfrag_core.Exec
module Fragment = Xfrag_core.Fragment
module Join_cache = Xfrag_core.Join_cache
module Shard_pool = Xfrag_core.Shard_pool
module Doctree = Xfrag_doctree.Doctree
module Ranking = Xfrag_baselines.Ranking
module Json = Xfrag_obs.Json

(* The engine in this process must behave as the server does, which
   runs with every XFRAG_* variable removed: blank the variables the
   libraries read (an empty value reads as unset), disarm failpoints
   armed from XFRAG_FAILPOINTS, turn the flight recorder on as the
   server has it, and keep corpus runs on this domain. *)
let isolate () =
  Array.iter
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i when String.starts_with ~prefix:"XFRAG_" kv -> Unix.putenv (String.sub kv 0 i) ""
      | _ -> ())
    (Unix.environment ());
  Unix.putenv "XFRAG_SHARD_DOMAINS" "0";
  Xfrag_fault.Fault.Failpoint.clear ();
  Xfrag_obs.Recorder.set_enabled true

(* The server's join cache as [xfrag serve] builds it by default
   ([--join-cache 4096], default stripes and admission). *)
let server_cache () = Join_cache.create ~synchronized:true ~capacity:4096 ()

type t = {
  mutable corpus : Corpus.t;
  cache : Join_cache.t;
  pool : Shard_pool.t;
  tally : (string, int) Hashtbl.t;
      (** writes by kind (["create"], ["replace"], ["delete"]), and
          ["<kind>.retired"] for those that dropped a cache partition *)
}

let count t key =
  Hashtbl.replace t.tally key (1 + Option.value ~default:0 (Hashtbl.find_opt t.tally key))

let tally t key = Option.value ~default:0 (Hashtbl.find_opt t.tally key)

let tally_json t =
  Json.Obj
    (List.map
       (fun k -> (k, Json.Int (tally t k)))
       [ "create"; "replace"; "delete"; "replace.retired"; "delete.retired" ])

let make ~corpus =
  {
    corpus;
    cache = server_cache ();
    pool = Shard_pool.create ~domains:0 ();
    tally = Hashtbl.create 8;
  }

let load_documents files =
  match Xfrag_doctree.Loader.load_documents files with
  | docs, [] when docs <> [] -> docs
  | _, q ->
      failwith
        (Printf.sprintf "boot documents failed to load (%d quarantined)"
           (List.length q))

(* Mirrors [xfrag serve]: a corpus folded from every document in file
   order. *)
let corpus_of docs =
  List.fold_left (fun c (name, tree) -> Corpus.add c ~name tree) Corpus.empty docs

let boot files = make ~corpus:(corpus_of (load_documents files))

(* Timing hooks.  [span name f] runs [f] inside a named span; [score_ns]
   receives the time of each scorer call made by [Corpus.run]. *)
type hooks = { span : 'a. string -> (unit -> 'a) -> 'a; score_ns : int -> unit }

let untimed = { span = (fun _ f -> f ()); score_ns = ignore }

type expected =
  | Read of Exec.Request.t * Corpus.outcome
  | Write of int * (string * Json.t) list
      (** expected status and the reply fields that must match *)

let decode body =
  match Exec.Request.of_body body with
  | Ok r -> r
  | Error msg -> failwith ("benchmark request rejected: " ^ msg)

let read hooks t body =
  let r = hooks.span "exec.decode" (fun () -> decode body) in
  let r = Exec.Request.with_cache (Some t.cache) r in
  let keywords = (Exec.Request.to_query r).Xfrag_core.Query.keywords in
  let scorer ctx f =
    let t0 = Clock.now_ns () in
    let s = Ranking.score ctx ~keywords f in
    hooks.score_ns (Clock.now_ns () - t0);
    s
  in
  let bound = Corpus.score_bound t.corpus ~keywords in
  Read
    ( r,
      hooks.span "corpus.run" (fun () ->
          Corpus.run ~pool:t.pool ~shards:1 ?bound ~scorer t.corpus r) )

let retire hooks t ~kind gen =
  count t kind;
  match gen with
  | Some g ->
      let before = Join_cache.partitions t.cache in
      hooks.span "cache.retire" (fun () -> Join_cache.retire t.cache ~generation:g);
      if Join_cache.partitions t.cache < before then count t (kind ^ ".retired")
  | None -> ()

let put hooks t ~name xml =
  let dom = hooks.span "xml.parse" (fun () -> Xfrag_xml.Xml_parser.parse_string xml) in
  let tree = hooks.span "doctree.build" (fun () -> Doctree.of_xml dom) in
  let existed = Corpus.mem t.corpus name in
  let gen = Corpus.generation t.corpus name in
  t.corpus <- hooks.span "corpus.replace" (fun () -> Corpus.replace t.corpus ~name tree);
  retire hooks t ~kind:(if existed then "replace" else "create") gen;
  Write
    ( (if existed then 200 else 201),
      [
        ("doc", Json.String name);
        ("created", Json.Bool (not existed));
        ("replaced", Json.Bool existed);
        ("nodes", Json.Int (Context.size (Corpus.context t.corpus name)));
        ("corpus_docs", Json.Int (Corpus.size t.corpus));
      ] )

let delete hooks t ~name =
  let gen = Corpus.generation t.corpus name in
  t.corpus <- hooks.span "corpus.remove" (fun () -> Corpus.remove t.corpus ~name);
  retire hooks t ~kind:"delete" gen;
  Write
    ( 200,
      [
        ("doc", Json.String name);
        ("deleted", Json.Bool true);
        ("corpus_docs", Json.Int (Corpus.size t.corpus));
      ] )

let apply ?(hooks = untimed) t = function
  | Inputs.Read body -> read hooks t body
  | Inputs.Put (name, xml) -> put hooks t ~name xml
  | Inputs.Delete name -> delete hooks t ~name

(* --- checking a reply -------------------------------------------------------- *)

let int_list ns = Json.List (List.map (fun n -> Json.Int n) ns)

let fragment_fields f =
  [
    ("root", Json.Int (Fragment.root f));
    ("nodes", int_list (Xfrag_util.Int_sorted.to_list (Fragment.nodes f)));
  ]

let same_number a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Float.equal x y
  | Json.Int x, Json.Int y -> x = y
  | Json.Int x, Json.Float y | Json.Float y, Json.Int x -> Float.equal (float_of_int x) y
  | _ -> false

let rec same a b =
  match (a, b) with
  | (Json.Int _ | Json.Float _), (Json.Int _ | Json.Float _) -> same_number a b
  | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 same xs ys
  | _ -> a = b

(* Every expected field must be present in the reply with the same
   value; extra reply fields are ignored. *)
let has_fields reply fields =
  List.for_all
    (fun (k, v) ->
      match Json.member k reply with Some v' -> same v v' | None -> false)
    fields

let expected_hits (o : Corpus.outcome) =
  List.map
    (fun ((h : Corpus.hit), score) ->
      ("doc", Json.String h.Corpus.doc)
      :: ("score", Json.Float score)
      :: fragment_fields h.Corpus.fragment)
    o.Corpus.hits

let list_matches reply key expected =
  match Json.member key reply with
  | Some (Json.List items) ->
      List.length items = List.length expected
      && List.for_all2 has_fields items expected
  | _ -> false

let matches expected ~status body =
  match Json.of_string body with
  | Error _ -> false
  | Ok reply -> (
      match expected with
      | Write (st, fields) -> status = st && has_fields reply fields
      | Read (_, o) ->
          status = 200
          && has_fields reply
               [
                 ("count", Json.Int (List.length o.Corpus.hits));
                 ("total_answers", Json.Int o.Corpus.total_answers);
                 ("deadline_expired", Json.Bool false);
                 ("errors", Json.List []);
               ]
          && list_matches reply "hits" (expected_hits o))
